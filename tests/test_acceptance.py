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
    Subgroup,
    character_table,
    conjecture_probe,
    enumerate_subgroups,
    generalized_plancherel_check_batch,
    induced_character,
    induced_rep,
    kernel_multiplicity_identity_check,
    linear_characters,
    make_named_group,
    plancherel_invert_at_identity,
    probe_plan,
    subgroup_closure,
    subgroup_spectrum,
    verify_orthogonality,
)
from finharm import test_functions as draw_test_functions
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
        F = draw_test_functions(G, SWEEP_SEED, range(NUM_F))
        f_l1 = np.abs(F).sum(axis=1)
        for U in enumerate_subgroups(G):
            spectrum = subgroup_spectrum(table, U, linear_characters(U))
            pairs += len(spectrum.psi_values)
            rec = generalized_plancherel_check_batch(spectrum, F)
            worst = max(worst, float((rec.abs_error / (1.0 + f_l1)).max()))
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
        F = draw_test_functions(G, SWEEP_SEED, range(NUM_F))
        f_l1 = np.abs(F).sum(axis=1)
        for f, norm, inverted in zip(F, f_l1, plancherel_invert_at_identity(table, F)):
            err = abs(f[0] - inverted)
            assert err <= 1e-8 * (1.0 + norm), spec
            worst = max(worst, err / (1.0 + norm))
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
        for U in enumerate_subgroups(G):
            spectrum = subgroup_spectrum(table, U, linear_characters(U))
            assert kernel_multiplicity_identity_check(spectrum, tol=1e-8).all(), spec
            worst = max(worst, float(spectrum.residuals.max()))

    # frozen spot values, re-derived through the explicit matrix route
    s3 = built.groups["symmetric:3"]
    t3 = built.tables["symmetric:3"]
    U = subgroup_closure(s3, [1])
    sign = linear_characters(U)[1]
    spot = subgroup_spectrum(t3, U, [sign])
    assert [round(v.real) for v in spot.kernels[0, :, 0]] == [0, 2, 2]

    q8 = built.groups["quaternion"]
    t8 = built.tables["quaternion"]
    center = subgroup_closure(q8, [1])
    at_1 = center.members.index(1)
    psi_c = next(p for p in linear_characters(center) if abs(p[at_1] + 1) < 1e-9)
    spot8 = subgroup_spectrum(t8, center, [psi_c])
    assert round(spot8.kernels[0, 4, 0].real) == 4

    for table, U_, psi_, kernels in (
        (t3, U, sign, [0, 2, 2]),
        (t8, center, psi_c, [0, 0, 0, 0, 4]),
    ):
        G_ = table.group
        rep = induced_rep(U_, np.conj(psi_))
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
            route_a = tuple(subgroup_spectrum(table, U, [psi]).multiplicities[0].tolist())
            ind = induced_character(U, psi, table)
            route_b = ind.multiplicities
            traces = induced_rep(U, psi).character
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
        stage |= {m, int(G.inv_table[m])}
        chain.append(set(stage))
    return chain


def test_c6_summation_order_oracles(built):
    from oracle_helpers import brute_fubini_value, fubini_interchange_oracle, truncation_demo

    start = time.perf_counter()
    configs = 0
    for spec in FUBINI_SPECS:
        G = built.groups[spec]
        table = built.tables[spec]
        fs = draw_test_functions(G, SWEEP_SEED, range(NUM_F))
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
        for f in draw_test_functions(G, 7, range(3)):
            a, _ = fubini_interchange_oracle(table, 0, U, psi, f)
            ref = brute_fubini_value(table, 0, U, psi, f)
            assert abs(a - ref) <= 1e-10 * (1.0 + abs(ref))
    # truncated kernels terminate bit-identically at the full kernel
    for spec in FUBINI_SPECS:
        G = built.groups[spec]
        table = built.tables[spec]
        for U in enumerate_subgroups(G):
            chain = _canonical_chain(U)
            psis = linear_characters(U)
            for psi, kernels in zip(psis, subgroup_spectrum(table, U, psis).kernels):
                for pi in range(table.num_irreps):
                    stages = truncation_demo(U, psi, table, pi, chain)
                    assert np.array_equal(stages[-1], kernels[pi])
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
        spectrum = subgroup_spectrum(table, U, [psi])
        assert kernel_multiplicity_identity_check(spectrum).all(), spec
        rec = conjecture_probe(spectrum, probe_plan(table, 20, seed=SWEEP_SEED))
        assert not rec.flagged.any(), spec
        for ratio in rec.ratios.ravel():
            assert abs(ratio - 1.0) <= 1e-9, spec

    s3 = built.groups["symmetric:3"]
    t3 = built.tables["symmetric:3"]
    U = subgroup_closure(s3, [1])
    sign = linear_characters(U)[1]
    spectrum = subgroup_spectrum(t3, U, [sign])
    (constant,) = conjecture_probe(spectrum, probe_plan(t3, 20, seed=SWEEP_SEED)).constant
    delta = np.eye(s3.order, dtype=np.complex128)[0]
    (ratio_sign,) = spectrum.kernels[:, 1] @ delta / (delta @ t3.element_values[1])
    (ratio_std,) = spectrum.kernels[:, 2] @ delta / (delta @ t3.element_values[2])
    assert abs(ratio_sign - 2) < 1e-10
    assert abs(ratio_std - 1) < 1e-10
    assert abs(spectrum.kernels[0, 1, 0] / t3.degrees[1] - 2) < 1e-10
    assert abs(spectrum.kernels[0, 2, 0] / t3.degrees[2] - 1) < 1e-10
    # the ratios genuinely distinguish the two irreps
    assert constant[1]
    assert not constant[2]
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
