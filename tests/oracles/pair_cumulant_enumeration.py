"""Exact-enumeration oracle for the replica pair-cumulant estimator.

The estimand is the cumulant kappa = E[phi(X_1) psi(X_2)] - E[phi] E[psi]
of two distinct particles drawn from an exchangeable pair law.  The
estimators combine per-replica sufficient statistics (mean over ordered
distinct pairs, and the two single-particle means) with a 1/R covariance
correction.  Unbiasedness is checked here *exactly*: every possible
sample assignment over R replicas of N=2 particles is enumerated with its
product probability, and the expectation of the estimator is summed as an
exact weighted average.  Any bias, however small, would show up directly.

The single-system estimate is the paired difference against an all-zero
control, which reproduces it bit for bit.  The same enumeration covers the
paired difference proper by coupling the companion replica to the first
through a deterministic state map, the worst case for a difference estimator
since the two terms are maximally dependent.

Run:  python3 tests/oracles/pair_cumulant_enumeration.py
"""
import itertools

import numpy as np

from pchaos.metrics import paired_pair_cumulant_difference

# Exchangeable pair law on states {0, 1, 2}^2: symmetric joint weights.
STATES = (0.0, 1.0, 2.5)
JOINT = np.array([
    [0.10, 0.05, 0.10],
    [0.05, 0.20, 0.05],
    [0.10, 0.05, 0.30],
])
assert abs(JOINT.sum() - 1.0) < 1e-15 and np.allclose(JOINT, JOINT.T)


def exact_cumulant(values) -> float:
    v = np.asarray(values)
    e_xy = float((JOINT * v[:, None] * v[None, :]).sum())
    marg = JOINT.sum(axis=1)
    e_x = float(marg @ v)
    return e_xy - e_x * e_x


def replica_stats(pair):
    """(u, abar, bbar) for one replica of N=2 particles with phi = psi = id."""
    a, b = STATES[pair[0]], STATES[pair[1]]
    return a * b, 0.5 * (a + b), 0.5 * (a + b)


def enumerate_expectation(n_replicas: int) -> float:
    """Exact E[estimator] over every assignment of R replica pair-states."""
    cells = list(itertools.product(range(3), repeat=2))
    total = 0.0
    for combo in itertools.product(cells, repeat=n_replicas):
        w = 1.0
        for pair in combo:
            w *= JOINT[pair]
        u, ab, bb = zip(*(replica_stats(p) for p in combo))
        zero = np.zeros(n_replicas)
        est, _ = paired_pair_cumulant_difference(
            np.array(u), np.array(ab), np.array(bb), zero, zero, zero
        )
        total += w * est
    return total


# Companion coupling: relabel states through a fixed permutation, so the
# companion replica is a deterministic function of the first.
PERM = (2, 0, 1)


def companion_cumulant() -> float:
    joint_c = np.zeros_like(JOINT)
    for i in range(3):
        for j in range(3):
            joint_c[PERM[i], PERM[j]] += JOINT[i, j]
    v = np.asarray(STATES)
    e_xy = float((joint_c * v[:, None] * v[None, :]).sum())
    e_x = float(joint_c.sum(axis=1) @ v)
    return e_xy - e_x * e_x


def enumerate_paired_expectation(n_replicas: int) -> float:
    cells = list(itertools.product(range(3), repeat=2))
    total = 0.0
    for combo in itertools.product(cells, repeat=n_replicas):
        w = 1.0
        for pair in combo:
            w *= JOINT[pair]
        u_a, ab_a, bb_a = zip(*(replica_stats(p) for p in combo))
        mapped = [(PERM[p[0]], PERM[p[1]]) for p in combo]
        u_b, ab_b, bb_b = zip(*(replica_stats(p) for p in mapped))
        est, _ = paired_pair_cumulant_difference(
            np.array(u_a), np.array(ab_a), np.array(bb_a),
            np.array(u_b), np.array(ab_b), np.array(bb_b),
        )
        total += w * est
    return total


def main():
    exact = exact_cumulant(STATES)
    print(f"exact pair cumulant: {exact:+.16e}")
    for r in (3, 4):
        got = enumerate_expectation(r)
        print(f"  R={r}: E[estimator] = {got:+.16e}  bias {got - exact:+.2e}")
    exact_diff = exact - companion_cumulant()
    print(f"exact paired difference: {exact_diff:+.16e}")
    for r in (3, 4):
        got = enumerate_paired_expectation(r)
        print(f"  R={r}: E[difference estimator] = {got:+.16e}  "
              f"bias {got - exact_diff:+.2e}")


if __name__ == "__main__":
    main()
