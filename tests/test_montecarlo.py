"""Replication harness: determinism, seeding, aggregation, comparisons."""

import concurrent.futures
import dataclasses
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import shapealign as sa
from shapealign import montecarlo
from shapealign.errors import ConfigInvalid, NonFiniteData
from shapealign.io import dumps_canonical, load_study_config, report_document
from shapealign.montecarlo import _QUANTILES, _aggregate, _covariance, _Fits, _quantiles, _replicate_chunk, worker_count
from shapealign.model import ConstraintRegime, Regime, free_columns, reparameterize_to_a1
from conftest import boxplot_truth, decay_shape
from oracles import aggregate_cell, run_study_per_regime


def _small_truth(sigma=1.0):
    a = np.array([1.0, 1.1])
    a = a * np.sqrt(2 / (a @ a))
    truth = sa.ParameterSet(theta=[0.0, 1.3], a=a, upsilon=[0.4, -0.6], sigma=sigma)
    return truth, decay_shape(1.0, band=15)


def test_config_validation():
    truth, shape = _small_truth()
    with pytest.raises(ConfigInvalid):
        sa.StudyConfig(truth=truth, shape=shape, n_list=(40,), replicates=4, base_seed=0)
    with pytest.raises(ConfigInvalid):
        sa.StudyConfig(truth=truth, shape=shape, n_list=(41,), replicates=1, base_seed=0)
    with pytest.raises(ConfigInvalid):
        sa.StudyConfig(truth=truth, shape=shape, n_list=(21,), replicates=4, base_seed=0)


def test_noiseless_study_has_no_spread():
    truth, shape = _small_truth(sigma=0.0)
    config = sa.StudyConfig(truth=truth, shape=shape, n_list=(41,), replicates=3,
                            base_seed=0, fit_config=sa.FitConfig(m=15))
    cell = sa.run_study(config).cells[0]
    assert np.max(np.abs(cell.bias)) < 1e-6
    assert np.max(np.abs(cell.empirical_covariance)) < 1e-9
    assert cell.failures == 0


def test_study_is_deterministic():
    truth, shape = _small_truth()
    config = sa.StudyConfig(truth=truth, shape=shape, n_list=(41,), replicates=5,
                            base_seed=7, fit_config=sa.FitConfig(m=4),
                            regimes=(Regime.A0, Regime.A1))
    doc1 = dumps_canonical(report_document(sa.run_study(config)))
    doc2 = dumps_canonical(report_document(sa.run_study(config)))
    assert doc1 == doc2


def test_replicates_extend_without_changing_prefix():
    # seeds derive from base + index, so growing R keeps earlier replicates
    truth, shape = _small_truth()
    regime = ConstraintRegime()
    cfg = sa.FitConfig(m=4)
    [(first,)] = _replicate_chunk((truth, shape, (regime.kind,), [(41, cfg, range(7, 10))]))
    [(again,)] = _replicate_chunk((truth, shape, (regime.kind,), [(41, cfg, range(7, 13))]))
    first, again = first.free, again.free
    for a, b in zip(first, again[:3]):
        assert np.array_equal(a, b)


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: maps the chunks in this process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, chunks):
        return map(fn, chunks)


def _record_pools(monkeypatch, pool=concurrent.futures.ProcessPoolExecutor):
    """Worker count of every pool a study opens; each is a ``pool``."""
    opened = []

    def recording(max_workers):
        opened.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording)
    return opened


def _force_three_workers(monkeypatch):
    # a pool for any study, and three workers even on a host with fewer CPUs
    monkeypatch.setattr(montecarlo, "_FITS_PER_WORKER", 1)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)
    monkeypatch.setenv("SHAPEALIGN_THREADS", "3")
    return _record_pools(monkeypatch)


def test_parallel_matches_serial(monkeypatch):
    monkeypatch.delenv("SHAPEALIGN_THREADS", raising=False)
    truth, shape = _small_truth()
    config = sa.StudyConfig(truth=truth, shape=shape, n_list=(41,), replicates=6,
                            base_seed=3, fit_config=sa.FitConfig(m=3))
    serial = dumps_canonical(report_document(sa.run_study(config)))
    opened = _force_three_workers(monkeypatch)
    parallel = dumps_canonical(report_document(sa.run_study(config)))
    assert opened == [3]
    assert serial == parallel


def _two_grid_config():
    truth, shape = _small_truth()
    return sa.StudyConfig(truth=truth, shape=shape, n_list=(41, 61), replicates=4,
                          base_seed=5, fit_config=sa.FitConfig(m=4),
                          regimes=(Regime.A0, Regime.A1))


def _canonical(report):
    return dumps_canonical(report_document(report))


def test_study_matches_per_regime_loop(monkeypatch):
    monkeypatch.delenv("SHAPEALIGN_THREADS", raising=False)
    config = _two_grid_config()
    assert _canonical(sa.run_study(config)) == _canonical(run_study_per_regime(config))


def test_study_generates_each_replicate_once(monkeypatch):
    monkeypatch.delenv("SHAPEALIGN_THREADS", raising=False)
    pairs, calls = [], []
    generate = montecarlo.generate_panels

    def counting(truth, shape, grid, seeds):
        calls.append(grid.n)
        pairs.extend((grid.n, seed) for seed in seeds)
        return generate(truth, shape, grid, seeds)

    monkeypatch.setattr(montecarlo, "generate_panels", counting)
    config = _two_grid_config()
    sa.run_study(config)
    assert len(pairs) == config.replicates * len(config.n_list)
    assert len(set(pairs)) == len(pairs)
    assert calls == list(config.n_list)  # one pass per grid size of the serial chunk


def test_parallel_matches_serial_both_regimes(monkeypatch):
    monkeypatch.delenv("SHAPEALIGN_THREADS", raising=False)
    config = _two_grid_config()
    serial = _canonical(sa.run_study(config))
    opened = _force_three_workers(monkeypatch)
    assert _canonical(sa.run_study(config)) == serial
    assert opened == [3]


def test_study_of_overflowing_panels_is_band_stack_nonfinite_data(monkeypatch):
    monkeypatch.delenv("SHAPEALIGN_THREADS", raising=False)
    truth, shape = _small_truth(sigma=1e308)
    config = sa.StudyConfig(truth=truth, shape=shape, n_list=(41,), replicates=3, base_seed=0,
                            fit_config=sa.FitConfig(m=4))
    with pytest.raises(NonFiniteData, match="^panel moments or DFT coefficients are not finite$"):
        sa.run_study(config)


def _figure2():
    fixtures = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    with open(os.path.join(fixtures, "figure2_report.json"), "rb") as fh:
        return load_study_config(os.path.join(fixtures, "figure2.json")), fh.read().decode()


@pytest.mark.parametrize("block", [1, 7, None, "all"], ids=["1", "7", "default", "all"])
def test_study_report_is_the_same_at_every_block_size(block, monkeypatch):
    # blocks of 1 and 7 seeds, the default and one block of every seed: the figure-2 report is the
    # golden one byte for byte, and a two-grid two-regime study's is its default serial report, both
    # serially and through three in-process workers, each block inside one worker's seed range
    monkeypatch.delenv("SHAPEALIGN_THREADS", raising=False)
    figure2, golden = _figure2()
    two_grid = dataclasses.replace(_two_grid_config(), replicates=17)
    expected = _canonical(sa.run_study(two_grid))
    runs, generate = [], montecarlo.generate_panels

    def recording(truth, shape, grid, seeds):
        runs.append((grid.n, seeds))
        return generate(truth, shape, grid, seeds)

    monkeypatch.setattr(montecarlo, "generate_panels", recording)
    for pooled in (False, True):
        if pooled:
            monkeypatch.setattr(montecarlo, "_FITS_PER_WORKER", 1)
            monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)
            monkeypatch.setenv("SHAPEALIGN_THREADS", "3")
            opened = _record_pools(monkeypatch, _InProcessPool)
        for config, want in ((figure2, golden), (two_grid, expected)):
            j, n = config.truth.n_curves, max(config.n_list)
            seeds = {1: 1, 7: 7, "all": config.replicates}.get(block)
            if seeds is not None:
                monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", seeds * j * n)
            runs.clear()
            assert _canonical(sa.run_study(config)) == want
            size = seeds or max(1, montecarlo._BLOCK_VALUES // (j * n))
            workers = 3 if pooled else 1
            ranges = [range(config.base_seed + config.replicates * w // workers,
                            config.base_seed + config.replicates * (w + 1) // workers) for w in range(workers)]
            blocks = [r[b:b + size] for r in ranges for b in range(0, len(r), size)]
            assert runs == [(grid, part) for part in blocks for grid in config.n_list]
        if pooled:
            assert opened == [3, 3]


def test_no_replicates_give_empty_fits_of_every_cell_and_kind(monkeypatch):
    monkeypatch.delenv("SHAPEALIGN_THREADS", raising=False)
    truth, shape = _small_truth()
    cells = [(41, sa.FitConfig(m=3)), (61, sa.FitConfig(m=4))]
    fits = montecarlo._map_ordered(truth, shape, (Regime.A0, Regime.A1), cells, range(5, 5))
    assert len(fits) == 2
    for (n, config), per_kind in zip(cells, fits):
        for kind, cell in zip((Regime.A0, Regime.A1), per_kind):
            width = truth.free_values().size - (kind is Regime.A1)
            assert cell.free.shape == (0, width) and cell.free.dtype == float
            assert cell.converged.shape == (0,) and cell.converged.dtype == bool
            assert cell.sigma.shape == (0,) and cell.coeffs.shape == (0, 2 * config.m + 1)


@pytest.mark.parametrize("replicates, base_seed, message", [
    (10**12, 0, "replicates 1000000000000 exceeds the largest study, 100000"),
    (montecarlo._MAX_REPLICATES + 1, 0, "replicates 100001 exceeds the largest study, 100000"),
    (4, -1, "base_seed must be >= 0 and base_seed + replicates <= 2**128"),
    (4, 2**128, "base_seed must be >= 0 and base_seed + replicates <= 2**128"),
    (4, 2**128 - 3, "base_seed must be >= 0 and base_seed + replicates <= 2**128"),
])
def test_every_study_entry_point_applies_the_seed_rules(replicates, base_seed, message, monkeypatch):
    # StudyConfig, mise_curve and compare_regimes reject the count and the seed keys before any draw
    def refuse(*args):
        raise AssertionError("a study ran")

    monkeypatch.setattr(montecarlo, "_map_ordered", refuse)
    truth, shape = _small_truth()
    with pytest.raises(ConfigInvalid, match=f"^{re.escape(message)}$"):
        sa.StudyConfig(truth=truth, shape=shape, n_list=(41,), replicates=replicates, base_seed=base_seed)
    with pytest.raises(ConfigInvalid, match=f"^{re.escape(message)}$"):
        sa.mise_curve(truth, shape, [41], replicates=replicates, base_seed=base_seed)
    with pytest.raises(ConfigInvalid, match=f"^{re.escape(message)}$"):
        sa.compare_regimes(truth, shape, 41, replicates=replicates, base_seed=base_seed)


def test_the_last_seed_keys_are_a_study():
    truth, shape = _small_truth()
    config = sa.StudyConfig(truth=truth, shape=shape, n_list=(41,), replicates=4, base_seed=2**128 - 4,
                            fit_config=sa.FitConfig(m=4))
    assert sa.run_study(config).cells[0].replicates == 4


def test_worker_count_parsing(monkeypatch):
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 8)
    monkeypatch.delenv("SHAPEALIGN_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("SHAPEALIGN_THREADS", "4")
    assert worker_count() == 4
    monkeypatch.setenv("SHAPEALIGN_THREADS", "0")
    assert worker_count() == 8
    monkeypatch.setenv("SHAPEALIGN_THREADS", "64")
    assert worker_count() == 8
    monkeypatch.setenv("SHAPEALIGN_THREADS", "nope")
    with pytest.raises(ConfigInvalid):
        worker_count()


def test_usable_cpus_follow_the_affinity_set():
    if hasattr(os, "sched_getaffinity"):
        assert montecarlo._usable_cpus() == len(os.sched_getaffinity(0))
    assert 1 <= montecarlo._usable_cpus() <= (os.cpu_count() or 1)


@pytest.mark.parametrize("threads", ["0", "64"])
def test_pool_never_has_more_workers_than_cpus(threads, monkeypatch):
    monkeypatch.setattr(montecarlo, "_FITS_PER_WORKER", 1)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)
    monkeypatch.setenv("SHAPEALIGN_THREADS", threads)
    opened = _record_pools(monkeypatch, _InProcessPool)
    config = _two_grid_config()
    report = _canonical(sa.run_study(config))
    assert opened == [3]
    monkeypatch.delenv("SHAPEALIGN_THREADS")
    assert report == _canonical(sa.run_study(config))
    assert opened == [3]


def test_pool_gets_at_least_the_fits_per_worker(monkeypatch):
    # 2 grids x 4 replicates x 2 regimes = 16 fits: 5 per worker allows 3 workers
    monkeypatch.setattr(montecarlo, "_FITS_PER_WORKER", 5)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 8)
    monkeypatch.setenv("SHAPEALIGN_THREADS", "0")
    opened = _record_pools(monkeypatch, _InProcessPool)
    sa.run_study(_two_grid_config())
    monkeypatch.setattr(montecarlo, "_FITS_PER_WORKER", 9)
    sa.run_study(_two_grid_config())
    assert opened == [3]


def test_pooled_chunks_take_a_seed_range_of_every_grid(monkeypatch):
    # 4 replicates over 3 workers: seeds 5, 6 and 7-8, each range at both grid sizes
    monkeypatch.setattr(montecarlo, "_FITS_PER_WORKER", 1)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)
    monkeypatch.setenv("SHAPEALIGN_THREADS", "3")
    opened = _record_pools(monkeypatch, _InProcessPool)
    runs, generate = [], montecarlo.generate_panels

    def recording(truth, shape, grid, seeds):
        runs.append((grid.n, list(seeds)))
        return generate(truth, shape, grid, seeds)

    monkeypatch.setattr(montecarlo, "generate_panels", recording)
    sa.run_study(_two_grid_config())
    assert opened == [3]
    assert runs == [(41, [5]), (61, [5]), (41, [6]), (61, [6]), (41, [7, 8]), (61, [7, 8])]


def test_figure2_study_opens_no_pool(monkeypatch):
    # 200 fits are below one worker's share, so two allowed workers still mean serial
    monkeypatch.setenv("SHAPEALIGN_THREADS", "2")
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)

    def refuse(max_workers):
        raise AssertionError("a pool was opened")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    fixtures = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    study = load_study_config(os.path.join(fixtures, "figure2.json"))
    assert study.replicates * len(study.regimes) < montecarlo._FITS_PER_WORKER
    with open(os.path.join(fixtures, "figure2_report.json"), "rb") as fh:
        assert _canonical(sa.run_study(study)).encode() == fh.read()


def test_cli_import_leaves_the_process_pool_unloaded():
    # only a study large enough for a pool imports concurrent.futures; a fit never does
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, shapealign.cli; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    fresh = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout.strip() == "[]"


def test_mise_decomposition_is_exact():
    truth, shape = _small_truth()
    curve = sa.mise_curve(truth, shape, [41, 81], smoothness=2, replicates=4, base_seed=1)
    for point in curve.points:
        assert point.total == point.inband + point.tail
        assert point.tail >= 0.0


def test_mise_zero_for_covered_band_noiseless():
    truth, _ = _small_truth(sigma=0.0)
    shape = sa.ShapeSpectrum.from_onesided({1: 1.0, 2: 0.4}, m=2)
    curve = sa.mise_curve(truth, shape, [41, 81], smoothness=1, replicates=3, base_seed=0)
    # m_n = ceil(n^(1/3)) >= 2 covers the band; no noise, no error
    for point in curve.points:
        assert point.m >= 2
        assert point.total < 1e-18


def test_zero_replicates_give_a_nan_mise_point_per_grid_and_no_regime_comparison():
    truth, shape = _small_truth()
    curve = sa.mise_curve(truth, shape, [41, 81], replicates=0)
    assert [p.n for p in curve.points] == [41, 81]
    assert all(np.isnan([p.inband, p.tail]).all() for p in curve.points)
    with pytest.raises(ConfigInvalid, match="only 0 of 0 paired fits converged"):
        sa.compare_regimes(truth, shape, 41, replicates=0)


def test_calibration_improves_with_sample_size():
    # relative deviation of the empirical covariance from its target drops
    # from n=101 to n=801 in at least 2 of the 3 parameter blocks
    a = np.array([1.0, 1.1])
    a = a * np.sqrt(2 / (a @ a))
    truth = sa.ParameterSet(theta=[0.0, 1.3], a=a, upsilon=[0.4, -0.6], sigma=1.0)
    shape = decay_shape(1.0, band=50)
    config = sa.StudyConfig(truth=truth, shape=shape, n_list=(101, 801), replicates=100,
                            base_seed=11, fit_config=sa.FitConfig(m=5))
    report = sa.run_study(config)
    devs = {}
    for cell in report.cells:
        d = np.diag(cell.ratios)
        devs[cell.n] = [abs(d[0] - 1), abs(d[1] - 1), float(np.mean(np.abs(d[2:] - 1)))]
    improved = sum(devs[801][k] <= devs[101][k] for k in range(3))
    assert improved >= 2


def test_compare_regimes_centered_truth_uncorrelated():
    # mean-free rewriting: both regimes show near-zero coupling
    a = np.array([1.0, 1.1])
    a = a * np.sqrt(2 / (a @ a))
    truth = sa.ParameterSet(theta=[0.0, 1.3], a=a, upsilon=[0.0, -0.6], sigma=1.0)
    shape = decay_shape(1.0, band=15)
    comp = sa.compare_regimes(truth, shape, 81, replicates=64, base_seed=2,
                              fit_config=sa.FitConfig(m=4))
    bound = 3.0 / np.sqrt(64)
    assert comp.c0 == 0.0
    assert np.all(np.abs(comp.corr_a0) <= bound)
    assert np.all(np.abs(comp.corr_a1) <= bound)


def test_compare_regimes_coupling_sign():
    truth, shape = _small_truth()  # upsilon_1 = 0.4 > 0, so c0 > 0
    comp = sa.compare_regimes(truth, shape, 81, replicates=64, base_seed=2,
                              fit_config=sa.FitConfig(m=4))
    assert comp.c0 > 0
    assert np.all(comp.corr_a1 < 0)
    assert np.all(comp.corr_a1_theory < 0)
    assert comp.a1_sign_consistent
    assert comp.failures == 0


def test_compare_regimes_theory_diagonal_is_the_scaled_a1_covariance():
    truth, shape = _small_truth()
    comp = sa.compare_regimes(truth, shape, 81, replicates=8, base_seed=2, fit_config=sa.FitConfig(m=4))
    truth_a1, shape_a1 = sa.reparameterize_to_a1(truth, shape)
    theory = sa.scaled_covariance(truth_a1.a, shape_a1, truth.sigma, Regime.A1)
    assert comp.a1_cov_diag_theory.tobytes() == np.diag(theory).tobytes()


def _cell_bits(cell):
    """Every field of a study cell, arrays and floats as their bytes."""
    return [(np.shape(v), np.asarray(v).tobytes()) if isinstance(v, (np.ndarray, float)) else v
            for v in vars(cell).values()]


@pytest.mark.parametrize("kind", [Regime.A0, Regime.A1])
@pytest.mark.parametrize("kept", [0, 1, 2, 7])
def test_aggregate_matches_the_numpy_oracle(kind, kept):
    truth, shape = boxplot_truth()
    ref_truth, ref_shape = (truth, shape) if kind is Regime.A0 else reparameterize_to_a1(truth, shape)
    rng = np.random.default_rng(kept)
    reps, m_fit, n = 7, 5, 201
    noise = rng.normal(scale=0.1, size=(reps, truth.n_curves))
    free = free_columns(np.mod(ref_truth.theta + noise, 2 * np.pi), ref_truth.a + noise,
                        ref_truth.upsilon + noise, kind)
    converged = np.zeros(reps, dtype=bool)
    converged[rng.permutation(reps)[:kept]] = True
    coeffs = ref_shape.coeffs[ref_shape.m - m_fit:ref_shape.m + m_fit + 1] + rng.normal(scale=0.01, size=(reps, 1))
    fits = _Fits(free, converged, rng.uniform(0.9, 1.1, reps), coeffs)
    assert _cell_bits(_aggregate(n, kind, ref_truth, ref_shape, fits)) == \
        _cell_bits(aggregate_cell(n, kind, ref_truth, ref_shape, fits))


# Rows with ties, both zeros and values far apart in scale.
_ROWS = hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(2, 6)),
                   elements=st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 1.0, -2.5]))


@settings(max_examples=400, deadline=None)
@given(rows=_ROWS)
def test_quantiles_and_covariance_are_numpys_bit_for_bit(rows):
    assert _quantiles(rows).tobytes() == np.quantile(rows, _QUANTILES, axis=0).tobytes()
    if len(rows) >= 2:
        assert _covariance(rows).tobytes() == np.cov(rows, rowvar=False, ddof=1).tobytes()
