"""Exception types shared across the package."""


class TangletreeError(Exception):
    pass


class NotACover(TangletreeError):
    pass


class CrossingEdge(TangletreeError):
    pass


class MismatchedGround(TangletreeError):
    pass


class NotInSystem(TangletreeError):
    pass


class TooLarge(TangletreeError):
    pass


class NotInProfile(TangletreeError):
    pass


class Indistinct(TangletreeError):
    pass


class NotAStar(TangletreeError):
    pass


class NotNested(TangletreeError):
    pass


class Irregular(TangletreeError):
    pass


class NoTangles(TangletreeError):
    pass


class VerificationFailed(TangletreeError):
    pass


class HypothesisFailure(TangletreeError):
    pass


class SearchExhausted(TangletreeError):
    pass


class NotExclusiveAnywhere(TangletreeError):
    pass


class StepBudgetExceeded(TangletreeError):
    pass


class NonDistributive(TangletreeError):
    pass


class ParseError(TangletreeError):
    pass
