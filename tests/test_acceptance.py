"""Acceptance gate: one test per verification criterion, at stated tolerances.

Each test prints a single summary line; shared sweeps are computed once per
session and timed where the criterion bounds the runtime.
"""

from __future__ import annotations

import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from finharm import (
    GroupFunction,
    Subgroup,
    character_table,
    conjecture_probe,
    enumerate_subgroups,
    fubini_interchange_oracle,
    generalized_plancherel_check_batch,
    induced_character,
    induced_rep_matrices,
    kernel_multiplicity_identity_check,
    linear_characters,
    make_named_group,
    multiplicity_frobenius,
    pair_spectrum,
    phi,
    plancherel_invert_at_identity,
    random_test_functions,
    subgroup_closure,
    theta,
    truncation_demo,
    verify_orthogonality,
)
from finharm.cli import main as cli_main
from conftest import CORPUS_SPECS

NUM_F = 100
SWEEP_SEED = 2025
FUBINI_SPECS = ("symmetric:3", "cyclic:6", "dihedral:2", "quaternion")


@pytest.fixture(scope="session")
def built():
    """All corpus groups and tables, built fresh and timed."""
    start = time.perf_counter()
    groups = {spec: make_named_group(spec) for spec in CORPUS_SPECS}
    tables = {spec: character_table(G) for spec, G in groups.items()}
    elapsed = time.perf_counter() - start
    sweep = tuple(s for s in CORPUS_SPECS if groups[s].order <= 24)
    return SimpleNamespace(groups=groups, tables=tables, elapsed=elapsed, sweep=sweep)


def _pairs(G):
    for U in enumerate_subgroups(G):
        for psi in linear_characters(U):
            yield U, psi


@pytest.fixture(scope="session")
def theorem_sweep(built):
    """Transform-identity check over every (group <= 24, U, psi) with 100 f."""
    start = time.perf_counter()
    worst = 0.0
    pairs = 0
    for spec in built.sweep:
        G = built.groups[spec]
        table = built.tables[spec]
        fs = random_test_functions(G, NUM_F, seed=SWEEP_SEED)
        for U, psi in _pairs(G):
            pairs += 1
            for rec in generalized_plancherel_check_batch(pair_spectrum(table, U, psi), fs):
                worst = max(worst, rec.abs_error / (1.0 + rec.f_l1))
    elapsed = time.perf_counter() - start
    return SimpleNamespace(worst=worst, pairs=pairs, elapsed=elapsed)


def test_c1_character_table_gate(built):
    worst = 0.0
    for spec, table in built.tables.items():
        report = verify_orthogonality(table, 1e-9)
        assert report.passed, spec
        worst = max(worst, report.max_deviation)
        assert sum(d * d for d in table.degrees) == built.groups[spec].order, spec
    assert built.elapsed < 5.0
    print(
        f"[C1] character-table gate: PASS "
        f"({len(built.tables)} groups, max orthogonality deviation {worst:.2e}, "
        f"built in {built.elapsed:.2f}s)"
    )


def test_c2_pointwise_inversion(built):
    start = time.perf_counter()
    worst = 0.0
    for spec, G in built.groups.items():
        table = built.tables[spec]
        for f in random_test_functions(G, NUM_F, seed=SWEEP_SEED):
            err = abs(f.at_identity - plancherel_invert_at_identity(table, f))
            assert err <= 1e-8 * (1.0 + f.l1_norm), spec
            worst = max(worst, err / (1.0 + f.l1_norm))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        f"[C2] pointwise inversion: PASS "
        f"({len(built.groups)} groups x {NUM_F} functions, worst scaled error "
        f"{worst:.2e}, {elapsed:.2f}s)"
    )


def test_c3_exhaustive_transform_sweep(theorem_sweep):
    assert theorem_sweep.worst <= 1e-8
    assert theorem_sweep.elapsed < 60.0
    print(
        f"[C3] transform identity sweep: PASS "
        f"({theorem_sweep.pairs} (U, psi) pairs x {NUM_F} functions, worst scaled "
        f"error {theorem_sweep.worst:.2e}, {theorem_sweep.elapsed:.1f}s)"
    )


def test_c4_kernel_multiplicity_identity(built):
    worst = 0.0
    for spec in built.sweep:
        G = built.groups[spec]
        table = built.tables[spec]
        for U, psi in _pairs(G):
            spectrum = pair_spectrum(table, U, psi)
            assert kernel_multiplicity_identity_check(spectrum, tol=1e-8), spec
            worst = max(worst, max(spectrum.residuals))

    # frozen spot values, re-derived through the explicit matrix route
    s3 = built.groups["symmetric:3"]
    t3 = built.tables["symmetric:3"]
    U = subgroup_closure(s3, [1])
    sign = linear_characters(U)[1]
    spot = pair_spectrum(t3, U, sign)
    assert [round(v.real) for v in spot.kernels[:, 0]] == [0, 2, 2]

    q8 = built.groups["quaternion"]
    t8 = built.tables["quaternion"]
    center = subgroup_closure(q8, [1])
    psi_c = next(p for p in linear_characters(center) if abs(p(1) + 1) < 1e-9)
    spot8 = pair_spectrum(t8, center, psi_c)
    assert round(spot8.kernels[4, 0].real) == 4

    for table, U_, psi_, kernels in (
        (t3, U, sign, [0, 2, 2]),
        (t8, center, psi_c, [0, 0, 0, 0, 4]),
    ):
        G_ = table.group
        rep = induced_rep_matrices(U_, psi_.conjugated())
        sizes = G_.class_sizes.astype(float)
        for pi, expected in enumerate(kernels):
            inner = complex(np.sum(sizes * rep.character * np.conj(table.values[pi])))
            m = round((inner / G_.order).real)
            assert U_.order * m == expected
    print(
        f"[C4] kernel-multiplicity identity: PASS "
        f"(worst residual {worst:.2e}, spot values (0, 2, 2) and 4 re-checked "
        f"via monomial matrices)"
    )


def test_c5_frobenius_triple_agreement(built):
    start = time.perf_counter()
    pairs = 0
    for spec in built.sweep:
        G = built.groups[spec]
        table = built.tables[spec]
        sizes = G.class_sizes.astype(float)
        for U, psi in _pairs(G):
            pairs += 1
            route_a = tuple(
                multiplicity_frobenius(table, pi, U, psi)
                for pi in range(table.num_irreps)
            )
            ind = induced_character(U, psi, table)
            route_b = ind.multiplicities
            traces = induced_rep_matrices(U, psi).character
            route_c = []
            for pi in range(table.num_irreps):
                inner = complex(np.sum(sizes * traces * np.conj(table.values[pi])))
                value = inner / G.order
                m = round(value.real)
                assert abs(value - m) < 1e-6
                route_c.append(m)
            assert route_a == route_b == tuple(route_c), spec
            total = sum(m * d for m, d in zip(route_a, table.degrees))
            assert total == U.num_cosets, spec
    elapsed = time.perf_counter() - start
    print(
        f"[C5] multiplicity triple agreement: PASS "
        f"({pairs} configurations, three routes exactly equal, dimension rule "
        f"holds, {elapsed:.1f}s)"
    )


def _canonical_chain(U):
    G = U.parent
    stage = {0}
    chain = [set(stage)]
    for m in U.members:
        if m in stage:
            continue
        stage |= {m, G.inv(m)}
        chain.append(set(stage))
    return chain


def test_c6_summation_order_oracles(built):
    from oracle_helpers import brute_fubini_value

    start = time.perf_counter()
    configs = 0
    for spec in FUBINI_SPECS:
        G = built.groups[spec]
        table = built.tables[spec]
        fs = random_test_functions(G, NUM_F, seed=SWEEP_SEED)
        for U, psi in _pairs(G):
            for pi in range(table.num_irreps):
                configs += 1
                for f in fs:
                    a, b = fubini_interchange_oracle(table, pi, U, psi, f, seed=SWEEP_SEED)
                    assert abs(a - b) <= 1e-10 * (1.0 + max(abs(a), abs(b)))
    # independent slow-path spot check of the value itself
    for spec in FUBINI_SPECS:
        G = built.groups[spec]
        table = built.tables[spec]
        U = enumerate_subgroups(G)[-1]
        psi = linear_characters(U)[-1]
        for f in random_test_functions(G, 3, seed=7):
            a, _ = fubini_interchange_oracle(table, 0, U, psi, f)
            ref = brute_fubini_value(table, 0, U, psi, f)
            assert abs(a - ref) <= 1e-10 * (1.0 + abs(ref))
    # truncated kernels terminate bit-identically at the full kernel
    for spec in FUBINI_SPECS:
        G = built.groups[spec]
        table = built.tables[spec]
        for U, psi in _pairs(G):
            chain = _canonical_chain(U)
            kernels = pair_spectrum(table, U, psi).kernels
            for pi in range(table.num_irreps):
                stages = truncation_demo(U, psi, table, pi, chain)
                assert np.array_equal(stages[-1].values, kernels[pi])
    elapsed = time.perf_counter() - start
    print(
        f"[C6] summation-order oracles: PASS "
        f"({configs} configurations x {NUM_F} functions agree to 1e-10; "
        f"truncation reproduces every kernel bit for bit, {elapsed:.1f}s)"
    )


def test_c7_probe_sanity(built):
    for spec in built.sweep:
        G = built.groups[spec]
        table = built.tables[spec]
        U = Subgroup(G, [0])
        psi = linear_characters(U)[0]
        spectrum = pair_spectrum(table, U, psi)
        assert kernel_multiplicity_identity_check(spectrum), spec
        for rec in conjecture_probe(spectrum, 20, seed=SWEEP_SEED):
            assert not any(rec.theta_zero_flags), spec
            for ratio in rec.ratio_samples:
                assert abs(ratio - 1.0) <= 1e-9, spec

    s3 = built.groups["symmetric:3"]
    t3 = built.tables["symmetric:3"]
    U = subgroup_closure(s3, [1])
    sign = linear_characters(U)[1]
    spectrum = pair_spectrum(t3, U, sign)
    _, sign_rec, std_rec = conjecture_probe(spectrum, 20, seed=SWEEP_SEED)
    delta = GroupFunction.delta(s3, 0)
    ratio_sign = phi(spectrum, 1, delta) / theta(t3, 1, delta)
    ratio_std = phi(spectrum, 2, delta) / theta(t3, 2, delta)
    assert abs(ratio_sign - 2) < 1e-10
    assert abs(ratio_std - 1) < 1e-10
    assert abs(spectrum.kernels[1, 0] / t3.degrees[1] - 2) < 1e-10
    assert abs(spectrum.kernels[2, 0] / t3.degrees[2] - 1) < 1e-10
    # the ratios genuinely distinguish the two irreps
    assert sign_rec.ratio_constant
    assert not std_rec.ratio_constant
    print(
        "[C7] probe sanity: PASS (trivial configuration gives unit ratios on "
        "every group; sign/standard ratios at the identity are 2 and 1)"
    )


def _strip_wall_time(text: str) -> str:
    return "\n".join(ln for ln in text.splitlines() if '"wall_time"' not in ln)


def test_c8_sweep_determinism(tmp_path):
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    args = ["sweep", "symmetric:4", "--seed", "7"]
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    text1 = out1.read_text()
    text2 = out2.read_text()
    assert _strip_wall_time(text1) == _strip_wall_time(text2)
    doc1 = json.loads(text1)
    doc2 = json.loads(text2)
    assert doc1["digest"] == doc2["digest"]
    doc1.pop("wall_time")
    doc2.pop("wall_time")
    assert doc1 == doc2
    print(
        f"[C8] sweep determinism: PASS (two runs byte-identical outside "
        f"wall_time; digest {doc1['digest'][:16]}...)"
    )
