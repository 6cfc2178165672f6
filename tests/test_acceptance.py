"""Acceptance criteria, one test per criterion.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line
per criterion; every tolerance is pinned here exactly as stated.
"""

import contextlib
import itertools
import json
import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fgext import bounds, channels, cli, extend, fgs, io, matalg, oracle
from fgext.verify import random_bona_fide_cm


@contextlib.contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {label}")
        raise
    print(f"[PASS] criterion {num}: {label}")


def _family_file(tmp_path, k1, k2):
    path = tmp_path / f"family_{k1}_{k2}.cm"
    io.save_cm(path, bounds.family_cm(k1, k2))
    return str(path)


def test_criterion_1_family_hierarchy(tmp_path, capsys):
    with criterion(1, "family hierarchy feasibility and one-sided refutations (<10 s)"):
        start = time.monotonic()
        for k1, k2 in itertools.product(range(1, 5), range(1, 5)):
            code = cli.main(["extendible", _family_file(tmp_path, k1, k2), str(k1), str(k2)])
            out = json.loads(capsys.readouterr().out)
            assert code == 0, (k1, k2, out)
            assert out["status"] == "feasible"
            assert out["margin"] >= -1e-7
        for k in range(1, 5):
            code = cli.main(["extendible", _family_file(tmp_path, k, 1), str(k + 1), "1"])
            out = json.loads(capsys.readouterr().out)
            assert code == 1
            assert out["status"] == "infeasible-certified"
            assert out["certificate"]
            code = cli.main(["extendible", _family_file(tmp_path, 1, k), "1", str(k + 1)])
            out = json.loads(capsys.readouterr().out)
            assert code == 1
            assert out["status"] == "infeasible-certified"
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"hierarchy sweep took {elapsed:.1f} s"


def test_criterion_2_one_sided_spectra():
    with criterion(2, "one-sided family spectra {±1, ±1/k} to 1e-10"):
        for k in range(1, 9):
            spec = matalg.hermitian_spectrum(bounds.family_cm(1, k).cm.body)
            assert_allclose(spec, [-1.0, -1.0 / k, 1.0 / k, 1.0], atol=1e-10)


def test_criterion_3_tightness():
    with criterion(3, "two-mode tightness: lower 1/sqrt(k1 k2), upper 2/sqrt(k1 k2)"):
        for k1, k2 in itertools.product(range(1, 7), range(1, 7)):
            b = bounds.family_cm(k1, k2)
            root = math.sqrt(k1 * k2)
            low = bounds.lower_bound_two_mode(b)
            assert abs(low - 1.0 / root) <= 1e-8, (k1, k2, low)
            up = bounds.trace_upper_from_cm(b)
            assert abs(up - 2.0 / root) <= 1e-10, (k1, k2, up)


def test_criterion_4_overlap_identity():
    with criterion(4, "overlap with the Bell pair: closed forms to 1e-10"):
        epr = bounds.family_cm(1, 1).cm
        for k in range(1, 7):
            got = fgs.overlap(bounds.family_cm(k, k).cm, epr)
            assert abs(got - 0.5 * (1.0 + 1.0 / k**2)) <= 1e-10
        for k1, k2 in itertools.product(range(1, 7), range(1, 7)):
            got = fgs.overlap(bounds.family_cm(k1, k2).cm, epr)
            want = 0.25 * (
                (2.0 * k1 * k2 - k1 - k2 + 2.0) / (k1 * k2) + 2.0 / math.sqrt(k1 * k2)
            )
            assert abs(got - want) <= 1e-10, (k1, k2)


def test_criterion_5_epsilon_independence():
    with criterion(5, "C_eps bona fide, both (1,2)/(2,1) column-sum refuted, ||X||_1 = eps"):
        for eps in (0.5, 0.1, 0.01):
            b = bounds.epsilon_family(eps)  # construction validates bona fide
            for q1, q2 in ((1, 2), (2, 1)):
                res = extend.feasibility(extend.ExtendQuery(b, q1, q2))
                assert res.status is extend.FeasibilityStatus.INFEASIBLE_CERTIFIED
                assert "column-sum" in res.certificate
            assert bounds.trace_upper_from_cm(b) == pytest.approx(eps, abs=1e-12)


def test_criterion_6_dense_oracle_equivalence():
    with criterion(6, "dense-oracle roundtrip/Wick/sandwich residuals (<60 s)"):
        start = time.monotonic()
        rng = np.random.default_rng(0)
        for trial in range(200):
            n = 1 + trial % 4
            cm = random_bona_fide_cm(rng, n)
            back = oracle.cm_from_state(oracle.state_from_cm(cm))
            assert np.max(np.abs(back.mat - cm.mat)) < 1e-9
        for n in (1, 2, 3):
            cm = random_bona_fide_cm(rng, n)
            state = oracle.state_from_cm(cm)
            for size in (2, 4, 6):
                if size > 2 * n:
                    break
                for idx in itertools.combinations(range(2 * n), size):
                    lhs, rhs = oracle.wick_check(state, cm, idx)
                    assert abs(lhs - rhs) < 1e-8
        for trial in range(100):
            n = 1 + trial % 3
            c1 = random_bona_fide_cm(rng, n)
            c2 = random_bona_fide_cm(rng, n)
            dist = oracle.trace_distance(
                oracle.state_from_cm(c1), oracle.state_from_cm(c2)
            )
            op, tr = matalg.norms(c1.mat - c2.mat)
            assert op <= dist + 1e-9
            assert dist <= 0.5 * tr + 1e-9
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"oracle suite took {elapsed:.1f} s"


def test_criterion_7_extension_correctness():
    with criterion(7, "explicit extensions: exact marginals, dense confirmation"):
        # two-sided (2, 2) witness on the family
        q = extend.ExtendQuery(bounds.family_cm(2, 2), 2, 2)
        result = extend.feasibility(q)
        assert result.feasible
        ext = extend.build_extension(q, result)
        assert ext.modes == 4
        for perm_spec in ([2, 3, 0, 1, 4, 5, 6, 7], [0, 1, 2, 3, 6, 7, 4, 5]):
            perm = np.array(perm_spec)
            assert_allclose(ext.mat[np.ix_(perm, perm)], ext.mat)
        for i in range(2):
            for j in range(2):
                rows = [2 * i, 2 * i + 1, 4 + 2 * j, 5 + 2 * j]
                assert_allclose(ext.mat[np.ix_(rows, rows)], q.b.mat)
        # one-sided (2, 1) instance checked against the dense oracle
        q21 = extend.ExtendQuery(bounds.family_cm(2, 1), 2, 1)
        res21 = extend.feasibility(q21)
        assert res21.feasible
        ext21 = extend.build_extension(q21, res21)
        state = oracle.state_from_cm(ext21)
        target = oracle.state_from_cm(q21.b.cm)
        red_a2b = oracle.reduced_state(state, 2, side="B")
        assert oracle.trace_distance(red_a2b, target) < 1e-8
        perm = [0, 1, 4, 5, 2, 3]
        perm_cm = fgs.validate_cm(
            matalg.antisymmetrize(ext21.mat[np.ix_(perm, perm)]), eps_psd=1e-7
        )
        red_a1b = oracle.reduced_state(oracle.state_from_cm(perm_cm), 2, side="A")
        assert oracle.trace_distance(red_a1b, target) < 1e-8


def test_criterion_8_de_finetti_evaluation():
    with criterion(8, "closure-bound formulas and the dense distance bracket"):
        rep = bounds.definetti_bounds(1, 1, 2, 2)
        assert rep.t == pytest.approx(1.0, abs=1e-12)
        assert rep.trace_upper == pytest.approx(1.0, abs=1e-12)
        assert rep.er_upper == pytest.approx(2.0, abs=1e-12)
        assert rep.esq_upper == pytest.approx(1.0, abs=1e-12)
        assert bounds.definetti_bounds(1, 1, 1, 1).t == 2.0
        b = bounds.family_cm(2, 2)
        prod = fgs.product_cm(fgs.marginal(b, "A"), fgs.marginal(b, "B"))
        dist = oracle.trace_distance(
            oracle.state_from_cm(b.cm), oracle.state_from_cm(prod.cm)
        )
        assert 0.5 - 1e-12 <= dist <= 1.0 + 1e-12


def test_criterion_9_channels():
    with criterion(9, "pure-loss antidegradability boundary and EB classification"):
        for lam10 in range(0, 11):
            lam = lam10 / 10.0
            ch = channels.pure_loss(lam)
            direct = channels.antidegradable(ch)
            expected = lam <= 0.5
            assert direct.feasible == expected, lam
            via_choi = channels.channel_k_extendible(ch, 2)
            assert via_choi.feasible == expected, lam
            assert channels.is_entanglement_breaking(ch) == (lam == 0.0)
        repl = channels.validate_channel(np.zeros((2, 2)), fgs.vacuum_cm(1).mat)
        assert channels.is_entanglement_breaking(repl)
        assert extend.is_separable_gaussian(channels.choi_cm(repl))
        tiny = channels.validate_channel(1e-10 * np.eye(2), 0.5 * fgs.vacuum_cm(1).mat)
        assert channels.is_entanglement_breaking(tiny)
        assert extend.is_separable_gaussian(channels.choi_cm(tiny))


def test_criterion_10_bosonic_strategy():
    with criterion(10, "overlap-strategy bound 1/(2k^2), strictly below 1/k"):
        for k in range(2, 21):
            got = bounds.bosonic_strategy_lower_bound(k, k)
            assert abs(got - 1.0 / (2.0 * k * k)) <= 1e-10
            assert got < 1.0 / k
