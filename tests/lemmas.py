"""Statements of the paper's lemmas that only the tests check."""

from tangletree.errors import HypothesisFailure
from tangletree.tangles import check_star, closely_related


def star_status(sigma, tangles):
    """The tangles that orient every member of the star sigma as sigma does:
    sigma is essential when there is one, exclusive when there is exactly one."""
    sigma = check_star(sigma)
    owners = [P for P in tangles if all(s in P for s in sigma)]
    return {
        "owners": owners,
        "essential": len(owners) >= 1,
        "exclusive": len(owners) == 1,
    }


def guarded_infimum(s, M, assignments):
    """r := s ^ meet(M); in S and closely related when the hypotheses hold.

    assignments maps each m in M to a profile containing s to which m is
    closely related.
    """
    for m in M:
        P = assignments.get(m)
        if P is None or s not in P or not closely_related(m, P)[0]:
            raise HypothesisFailure("m=%r lacks a valid profile assignment" % (m,))
    r = s
    for m in sorted(M, key=lambda x: x.sort_key):
        r = r.meet(m)
    return r
