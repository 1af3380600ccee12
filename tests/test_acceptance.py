"""End-to-end checks of the protocol's headline claims.

Each test exercises one claim at its stated tolerance and prints a single
[PASS]/[FAIL] line (visible with ``pytest -s`` or via the standalone
runner: ``python3 tests/test_acceptance.py``).
"""

import sys
import time

import numpy as np

import dense_oracle
from clusterport import BELL_OUTCOMES, BellOutcome, RunConfig, Scheme, emit_report, table_lookup
from clusterport.gates import apply_cz
from clusterport.harness import run_enumeration, run_montecarlo, run_verification
from clusterport.exact import certified_repairs
from clusterport.protocol import (
    assemble_total,
    collapse_branch,
    pauli_pair_fidelities,
    random_input,
)
from clusterport.statevec import StateVector, fidelity

ALL_PAIRS = [(a, b) for a in BELL_OUTCOMES for b in BELL_OUTCOMES]

_ENUM_CACHE = {}


def check(label, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def enumeration(scheme):
    if scheme not in _ENUM_CACHE:
        cfg = RunConfig(scheme=scheme, mode="enumerate", random_inputs=100, seed=0)
        _ENUM_CACHE[scheme] = run_enumeration(cfg)
    return _ENUM_CACHE[scheme]


def test_perfect_fidelity_every_branch():
    # 100 seeded random inputs per scheme, all 16 branches each:
    # post-correction fidelity must reach 1 up to 1e-10
    start = time.perf_counter()
    worst = min(
        enumeration(scheme).aggregates["min_fidelity"]
        for scheme in (Scheme.SPECIAL, Scheme.ARBITRARY)
    )
    elapsed = time.perf_counter() - start
    check(
        "perfect fidelity on all 3200 branches",
        worst >= 1 - 1e-10 and elapsed < 1.0,
        f"min fidelity {worst:.17g}, {elapsed:.2f}s",
    )


def test_branch_probabilities_uniform():
    # every branch lands at exactly 1/16 and each input's branch
    # probabilities sum to 1
    worst_p = 0.0
    worst_total = 0.0
    for scheme in (Scheme.SPECIAL, Scheme.ARBITRARY):
        report = enumeration(scheme)
        worst_p = max(
            worst_p,
            max(abs(r.probability - 1 / 16) for r in dense_oracle.report_rows(report)),
        )
        worst_total = max(
            worst_total, max(abs(s.total_probability - 1.0) for s in report.inputs)
        )
    check(
        "branch probabilities uniform at 1/16 and total 1",
        worst_p <= 1e-12 and worst_total <= 1e-12,
        f"max |p - 1/16| = {worst_p:.3g}, max |total - 1| = {worst_total:.3g}",
    )


def test_arbitrary_scheme_table_rederived():
    # derivation over Pauli pairs must rediscover the full-input table
    # exactly, with a unique survivor per branch
    start = time.perf_counter()
    rows = run_verification(RunConfig(scheme=Scheme.ARBITRARY, mode="verify")).verdicts
    elapsed = time.perf_counter() - start
    exact = sum(row["verdict"] == "exact-up-to-global-phase" for row in rows)
    unique = all(len(row["derived"]) == 1 for row in rows)
    check(
        "full-input correction table rederived uniquely",
        exact == 16 and unique and elapsed < 1.0,
        f"{exact}/16 exact, unique per cell: {unique}, {elapsed:.2f}s",
    )


def test_restricted_scheme_table_verified():
    # every listed repair, both alternatives of the dual cells included,
    # must be certified exact on the restricted span (repair times 4K equal
    # to c I there) and survive the dense brute force on seeded restricted
    # probes; at least one dual cell must be shown NOT to generalize to
    # arbitrary inputs
    probes = dense_oracle.scheme_probes(Scheme.SPECIAL, 1851)
    rows = run_verification(RunConfig(scheme=Scheme.SPECIAL, mode="verify")).verdicts
    certificate = certified_repairs(False, Scheme.SPECIAL)
    listed_total = certified = 0
    worst = 1.0
    for pair, exact in zip(ALL_PAIRS, certificate):
        dense = dense_oracle.pair_fidelities(*pair, probes, cz_first=False)
        for op in table_lookup(Scheme.SPECIAL, *pair):
            listed_total += 1
            certified += op in exact
            worst = min(worst, dense[(op.p4, op.p5)])
    dual_subspace = any(len(row["listed"]) == 2 and row["subspace_only"] for row in rows)
    check(
        "restricted-input table verified, dual entries included",
        certified == listed_total == 24 and worst >= 1 - 1e-10 and dual_subspace,
        f"{certified}/{listed_total} listed repairs certified, worst dense fidelity "
        f"{worst:.17g}, dual cell subspace-only: {dual_subspace}",
    )


def test_branch_fixtures():
    # two pinned branches, 20 random inputs each: the (Phi+, Phi+)
    # pre-correction remainder of the restricted scheme must match
    # alpha|00> - delta|11>, and the (Phi+, Phi-) post-CZ remainder of the
    # arbitrary scheme must match alpha|00> - beta|01> + gamma|10> - delta|11>
    rng = np.random.default_rng(2718)
    worst = 1.0
    for _ in range(20):
        s = random_input(Scheme.SPECIAL, rng)
        alpha, delta = s.coeffs
        _, remainder = collapse_branch(
            assemble_total(s), BellOutcome.PHI_PLUS, BellOutcome.PHI_PLUS
        )
        expected = StateVector((4, 5), np.array([alpha, 0, 0, -delta]))
        worst = min(worst, fidelity(expected, remainder))
    for _ in range(20):
        s = random_input(Scheme.ARBITRARY, rng)
        alpha, beta, gamma, delta = s.coeffs
        _, remainder = collapse_branch(
            assemble_total(s), BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS
        )
        swept = apply_cz(remainder, 4, 5)
        expected = StateVector((4, 5), np.array([alpha, -beta, gamma, -delta]))
        worst = min(worst, fidelity(expected, swept))
    check(
        "pinned branch remainders match their closed forms",
        worst >= 1 - 1e-10,
        f"worst fixture fidelity {worst:.17g} over 40 inputs",
    )


def test_cz_step_required():
    # with the controlled-phase step disabled, no Pauli pair can repair
    # a full-support input on every branch
    rng = np.random.default_rng(3141)
    while True:
        probe = random_input(Scheme.ARBITRARY, rng)
        if min(abs(c) for c in probe.coeffs) > 0.1:
            break
    broken = 0
    for o13, o26 in ALL_PAIRS:
        w = pauli_pair_fidelities(o13, o26, [probe.coeffs], cz_first=False)
        if max(w.values()) < 1 - 1e-6:
            broken += 1
    check(
        "controlled-phase step is load-bearing",
        broken >= 1,
        f"{broken}/16 branches unrepairable by Paulis alone",
    )


def test_monte_carlo_statistics():
    # 16000 seeded trials: every outcome-pair frequency within 3 sigma of
    # 1/16, and the full report byte-identical on a rerun
    cfg = RunConfig(
        scheme=Scheme.ARBITRARY, mode="sample",
        trials=16000, seed=0, output_format="json",
    )
    start = time.perf_counter()
    report = run_montecarlo(cfg)
    elapsed = time.perf_counter() - start
    first = emit_report(report)
    second = emit_report(run_montecarlo(cfg))
    agg = report.aggregates
    check(
        "Monte Carlo frequencies within 3 sigma and reproducible",
        agg["within_three_sigma"]
        and agg["distinct_outcomes"] == 16
        and first == second
        and elapsed < 2.0,
        f"max deviation {agg['max_frequency_deviation']:.3g} vs "
        f"3 sigma {agg['three_sigma']:.3g}, identical bytes: {first == second}, "
        f"{elapsed:.2f}s",
    )


CHECKS = (
    test_perfect_fidelity_every_branch,
    test_branch_probabilities_uniform,
    test_arbitrary_scheme_table_rederived,
    test_restricted_scheme_table_verified,
    test_branch_fixtures,
    test_cz_step_required,
    test_monte_carlo_statistics,
)


def main() -> int:
    failures = 0
    for fn in CHECKS:
        try:
            fn()
        except AssertionError:
            failures += 1
    print(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
