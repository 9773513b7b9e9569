"""Time stepper against exact linear solutions and normal-form identities."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import count_transform_rows, record_run, record_scenario
from rda import solver
from rda.analysis import SampleReduction, diagnose, gaussian_profile, normal_form_rates
from rda.core import (
    EnvelopeSpec,
    Grid,
    InitialData,
    PolyTerm,
    Scenario,
    SystemSpec,
    validate_scenario,
)
from rda.scenarios import BUILTIN_SCENARIOS, get_scenario
from rda.solver import (
    SpectralWorkspace,
    detect_blow_up,
    run,
    run_scenario,
    step,
)


def linear_system(d1=1.0, d2=0.5, c1=0.0, c2=2.0):
    return SystemSpec(d1=d1, d2=d2, c1=c1, c2=c2)


def test_linear_problem_solved_exactly():
    # With no couplings the splitting is the exact spectral propagator, so
    # a Gaussian pulse must match the closed-form advected heat solution to
    # round-off regardless of dt.
    grid = Grid(half_width=60.0, n=512)
    system = linear_system()
    x = grid.points()
    w = 4.0
    initial = np.stack((np.exp(-x ** 2 / w), np.exp(-x ** 2 / w)))
    ws = SpectralWorkspace(grid=grid, system=system, dt=0.05)
    result = record_run(ws, initial, t_end=2.0, sample_dt=2.0)
    final_u, final_v = result.fields[-1]
    t = result.times[-1]

    def exact(d, c):
        spread = w + 4.0 * d * t
        return math.sqrt(w / spread) * np.exp(-((x + c * t) ** 2) / spread)

    assert np.max(np.abs(final_u - exact(system.d1, system.c1))) < 1e-12
    assert np.max(np.abs(final_v - exact(system.d2, system.c2))) < 1e-12


def test_zero_data_stays_zero():
    grid = Grid(half_width=30.0, n=128)
    system = SystemSpec(d1=1, d2=1, c1=0, c2=1,
                        f1=(PolyTerm(1.0, 1, 1, 0),),
                        f2=(PolyTerm(1.0, 2, 0, 0),))
    initial = np.zeros((2, grid.n))
    ws = SpectralWorkspace(grid=grid, system=system, dt=0.01)
    result = record_run(ws, initial, t_end=0.5, sample_dt=0.1)
    assert not result.blew_up
    for u, v in result.fields:
        assert not u.any() and not v.any()


def test_dealiased_modes_identically_zero():
    grid = Grid(half_width=30.0, n=256)
    system = SystemSpec(d1=1, d2=1, c1=0, c2=1,
                        f1=(PolyTerm(1.0, 2, 0, 0),),
                        g2=(PolyTerm(0.5, 2, 0, 1),))
    x = grid.points()
    initial = np.stack((0.01 * np.exp(-x ** 2), 0.01 * np.exp(-(x - 1) ** 2)))
    ws = SpectralWorkspace(grid=grid, system=system, dt=0.01)
    seen = []
    run(ws, initial, t_end=1.0, sample_dt=ws.dt,
        on_sample=lambda t, spectra, fields: seen.append(spectra))
    u_hat, v_hat = seen[-1][0], seen[-1][1]
    assert np.max(np.abs(u_hat[~ws.dealias])) == 0.0
    assert np.max(np.abs(v_hat[~ws.dealias])) == 0.0


def test_blow_up_detected_and_run_terminates():
    # u_t = u_xx + u^2 with large data ignites in finite time.
    grid = Grid(half_width=30.0, n=256)
    system = SystemSpec(d1=1, d2=1, c1=0, c2=1,
                        f1=(PolyTerm(1.0, 2, 0, 0),))
    x = grid.points()
    initial = np.stack((50.0 * np.exp(-x ** 2), np.zeros(grid.n)))
    ws = SpectralWorkspace(grid=grid, system=system, dt=1e-3)
    result = record_run(ws, initial, t_end=5.0, sample_dt=0.05)
    assert result.blew_up
    assert result.blow_up_time is not None and result.blow_up_time < 5.0
    # Only the samples taken before the blow-up are returned.
    assert result.times.shape == (len(result.fields),)
    assert len(result.times) < 1 + round(5.0 / 0.05)
    assert result.times[-1] <= result.blow_up_time
    assert np.isfinite(result.fields).all()


def test_blow_up_guard_stops_before_the_flagged_step():
    # u_t = u_xx + u^2 with large data ignites within the first 0.1.
    grid = Grid(half_width=30.0, n=64)
    system = SystemSpec(d1=1, d2=1, c1=0, c2=1, f1=(PolyTerm(1.0, 2, 0, 0),))
    x = grid.points()
    initial = np.stack((50.0 * np.exp(-x ** 2), np.zeros(grid.n)))
    ws = SpectralWorkspace(grid=grid, system=system, dt=1e-3)
    seen = []
    blow_up_time = run(ws, initial, t_end=1.0, sample_dt=ws.dt,
                       on_sample=lambda t, spectra, fields: seen.append(
                           (t, spectra, spectra.copy())))
    assert blow_up_time is not None and seen
    # The flagged step is not sampled; it is the step after the last one.
    assert blow_up_time not in [t for t, _, _ in seen]
    assert blow_up_time == seen[-1][0] + ws.dt
    assert seen[-1][0] <= blow_up_time
    # step writes a new array, so the spectra the hook kept are intact.
    for _, spectra, copy in seen:
        assert spectra.tobytes() == copy.tobytes()


@pytest.mark.parametrize("couplings,inverse,forward", [
    # toy: f1 reads both components, only u moves. Smooth data take the
    # grid path: both rows in, the increment of u out.
    (dict(f1=(PolyTerm(1.0, 4, 0, 0), PolyTerm(1.0, 1, 1, 0))), [2], [1]),
    # remark51: f2 reads only u, which does not move; the stage-1 slope is reused.
    (dict(f2=(PolyTerm(1.0, 4, 0, 0),)), [1], [1]),
    # Both components move, under reactions only: the grid path takes both
    # rows in and both increments out.
    (dict(f1=(PolyTerm(1.0, 1, 1, 0),), f2=(PolyTerm(-1.0, 2, 0, 0),)), [2], [2]),
    # thm1: the identical slots f1 = f2 = uv share one forward row; its
    # flux slots keep it on the projected path, where every stage transforms.
    (dict(f1=(PolyTerm(1.0, 1, 1, 0),), f2=(PolyTerm(1.0, 1, 1, 0),),
          g1=(PolyTerm(1.0, 2, 0, 1),), g2=(PolyTerm(1.0, 0, 2, 1),)),
     [2, 2, 2, 2], [3, 3, 3, 3]),
    # No couplings: both rows are still and nothing is transformed.
    ({}, [], []),
], ids=["toy", "remark51", "both_move", "thm1", "no_coupling"])
def test_rows_transformed_per_step(monkeypatch, couplings, inverse, forward):
    # Data wide enough that u^4 keeps nothing but round-off beyond the kept
    # band; tests/test_stepper_oracle.py counts the rows of rough data.
    grid = Grid(half_width=30.0, n=128)
    system = SystemSpec(d1=1.0, d2=0.25, c1=0.0, c2=5.0, **couplings)
    x = grid.points()
    initial = np.stack((1e-3 * np.exp(-x ** 2 / 16.0), 1e-3 * np.exp(-(x - 1) ** 2 / 9.0)))
    ws = SpectralWorkspace(grid=grid, system=system, dt=0.01)
    spectra = np.fft.rfft(initial) * ws.dealias
    rows = count_transform_rows(monkeypatch)
    steps = 3
    for _ in range(steps):
        spectra = step(ws, spectra)
    assert rows["irfft"] == inverse * steps
    assert rows["rfft"] == forward * steps


def _stage_programs(ws):
    """The names of the slot calls (None when the stage reuses stage 1's
    forward transform) and of the writes of each stage program of ws, in
    order."""
    return [(None if ops is None else [op.__name__ for op, _ in ops],
             [op.__name__ for op, _ in writes])
            for _, ops, writes in ws._stages]


# The slot calls of stage 1 and of stages 2-4 of every builtin. Horner's
# rule builds no power buffer: toy's u^4 + uv is ((u u) u + v) u, and
# cas3's uv + b u^3 is ((b u) u + v) u. remark51-exact reuses its stage-1
# slope.
_SLOT_CALLS = {
    "toy": (4, 4),
    "thm1-exp": (3, 3),
    "thm1-alg": (3, 3),
    "thm2-irrelevant": (5, 5),
    "remark51-exact": (3, None),
    "cas2-equal": (2, 2),
    "cas2-distinct": (2, 2),
    "cas3-stable": (5, 5),
    "cas3-sign-violated": (5, 5),
}


@pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
def test_slot_calls_per_stage(name):
    scenario = get_scenario(name)
    ws = SpectralWorkspace(grid=scenario.grid, system=scenario.system, dt=scenario.dt)
    assert tuple(None if ops is None else len(ops)
                 for ops, _ in _stage_programs(ws)) == _SLOT_CALLS[name]


def test_equal_monomials_build_one_product():
    # The stepper reads SystemSpec.monomials(): f1 = 0.5 uv + 0.5 uv is
    # f1 = uv, one product and not two products and a sum.
    grid = Grid(half_width=30.0, n=128)
    programs = [_stage_programs(SpectralWorkspace(
        grid=grid, dt=0.01, system=SystemSpec(d1=1.0, d2=0.25, c1=0.0, c2=5.0, f1=terms)))
        for terms in ((PolyTerm(1.0, 1, 1, 0),), (PolyTerm(0.5, 1, 1, 0),) * 2)]
    assert programs[1] == programs[0]
    # The one product, then the copy of its spectrum into the RK4 row.
    assert programs[0][0] == (["multiply"], ["copyto"])


@pytest.mark.parametrize("n", [64, 1024, 8192])
@pytest.mark.parametrize("rows", [slice(1, 2), slice(0, 2)], ids=["1row", "2rows"])
def test_transforms_equal_scipy_fft_bit_for_bit(rows, n):
    # _rfft/_irfft call pocketfft's private r2c/c2r kernels; a change of
    # their signature or convention in scipy must fail here, whether they
    # return a new array or write into a preallocated one.
    rng = np.random.default_rng(n)
    fields = rng.standard_normal((2, n))[rows]
    kept = fields.copy()
    expected = scipy.fft.rfft(fields, axis=-1)
    buffer = np.empty_like(expected)
    for out in (None, buffer):
        spectra = solver._rfft(fields, out=out)
        assert out is None or spectra is out
        assert fields.tobytes() == kept.tobytes()
        assert spectra.dtype == expected.dtype and spectra.shape == expected.shape
        assert spectra.tobytes() == expected.tobytes()
    # A stage spectrum: modes beyond K are zero, and _coupling_rhs passes
    # the row-slice view y[rows] of the (2, n/2+1) stage buffer and writes
    # into the same rows of a (2, n) field buffer.
    y = scipy.fft.rfft(rng.standard_normal((2, n)), axis=-1)
    y[:, n // 3 + 1:] = 0.0
    view = y[rows]
    kept = y.copy()
    expected = scipy.fft.irfft(view, n=n, axis=-1)
    stage_fields = np.empty((2, n))
    for out in (None, np.empty_like(expected), stage_fields[rows]):
        fields = solver._irfft(view, n, out=out)
        assert out is None or fields is out
        assert y.tobytes() == kept.tobytes()
        assert fields.dtype == expected.dtype and fields.shape == expected.shape
        assert fields.tobytes() == expected.tobytes()
    assert stage_fields[rows].tobytes() == expected.tobytes()


# A system with one still component and one where both components move,
# on a grid where the stepper's buffers are far smaller than a spectrum.
BUFFER_SYSTEMS = {
    "toy": SystemSpec(d1=1.0, d2=1.0, c1=0.0, c2=5.0,
                      f1=(PolyTerm(1.0, 4, 0, 0), PolyTerm(1.0, 1, 1, 0))),
    "both_move": SystemSpec(d1=1.0, d2=0.5, c1=0.0, c2=2.0,
                            f1=(PolyTerm(1.0, 1, 1, 0),),
                            f2=(PolyTerm(-1.0, 2, 0, 0),),
                            g2=(PolyTerm(0.5, 0, 2, 1),)),
}


def buffer_workspace(name, n):
    grid = Grid(half_width=30.0, n=n)
    ws = SpectralWorkspace(grid=grid, system=BUFFER_SYSTEMS[name], dt=0.01)
    x = grid.points()
    initial = np.stack((0.1 * np.exp(-x ** 2 / 4.0), 0.1 * np.exp(-(x - 1) ** 2)))
    return ws, initial


@pytest.mark.parametrize("name", sorted(BUFFER_SYSTEMS))
def test_samples_and_steps_never_alias_workspace_buffers(name):
    # The stage transforms write into workspace buffers; what run hands
    # its hook and what step returns must not be one of them.
    ws, initial = buffer_workspace(name, 128)
    seen = []
    run(ws, initial, t_end=0.2, sample_dt=ws.dt,
        on_sample=lambda t, spectra, fields: seen.append(
            (spectra, spectra.copy(), fields, fields.copy())))
    assert len(seen) == 21
    for spectra, spectra_copy, fields, fields_copy in seen:
        assert spectra.tobytes() == spectra_copy.tobytes()
        assert fields.tobytes() == fields_copy.tobytes()
    first = step(ws, seen[-1][0])
    kept = first.copy()
    second = step(ws, first)
    assert second is not first and not np.shares_memory(first, second)
    assert first.tobytes() == kept.tobytes()


@pytest.mark.parametrize("name", sorted(BUFFER_SYSTEMS))
def test_step_allocates_little_more_than_its_result(name):
    # Every stage transform, monomial, RK4 update and still-row flush
    # writes into a workspace buffer, so a steady-state step allocates its
    # (2, n/2+1) result and little else.
    ws, initial = buffer_workspace(name, 1024)
    spectra = np.fft.rfft(initial) * ws.dealias
    for _ in range(3):
        spectra = step(ws, spectra)
    tracemalloc.start()
    try:
        result = step(ws, spectra)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * result.nbytes


# Systems with one still component (no coupling terms) that diffuses fast
# enough for its top kept modes to fall below the smallest normal float
# from t = 2.1 on, on the grid of still_workspace.
STILL_SYSTEMS = {
    # u moves under u^4 + u v; v is still.
    "toy": (SystemSpec(d1=1.0, d2=4.0, c1=0.0, c2=5.0,
                       f1=(PolyTerm(1.0, 4, 0, 0), PolyTerm(1.0, 1, 1, 0))),
            slice(1, 2)),
    # v moves under u^4; u is still.
    "remark51": (SystemSpec(d1=4.0, d2=0.25, c1=0.0, c2=1.0,
                            f2=(PolyTerm(1.0, 4, 0, 0),)),
                 slice(0, 1)),
}
TINY = np.finfo(np.float64).tiny


def still_workspace(name):
    system, still = STILL_SYSTEMS[name]
    ws = SpectralWorkspace(grid=Grid(half_width=30.0, n=256), system=system, dt=0.01)
    assert ws.still == still
    x = ws.grid.points()
    initial = np.stack((1e-3 * np.exp(-x ** 2 / 4.0), 1e-3 * np.exp(-x ** 2 / 4.0)))
    return ws, still, initial


def count_subnormal(values):
    parts = np.abs(values.view(np.float64))
    return int(np.count_nonzero((parts > 0.0) & (parts < TINY)))


@pytest.mark.parametrize("name", sorted(STILL_SYSTEMS))
def test_observed_spectra_hold_no_subnormal(name):
    ws, still, initial = still_workspace(name)
    seen = []

    def on_sample(t, spectra, fields):
        # The initial spectrum has not been stepped, so it is not flushed.
        if t > 0:
            seen.append(spectra)

    run(ws, initial, t_end=4.0, sample_dt=ws.dt, on_sample=on_sample)
    assert len(seen) == 400
    assert [count_subnormal(spectra) for spectra in seen] == [0] * len(seen)
    # The still row's top kept modes did underflow: they are exactly zero.
    assert not seen[-1][still, ws.n_kept - 1].any()


@pytest.mark.parametrize("name", sorted(STILL_SYSTEMS))
def test_still_row_only_sees_the_linear_multiplier(name):
    ws, still, initial = still_workspace(name)
    spectra = np.fft.rfft(initial) * ws.dealias
    # Magnitudes from 1e-300 down to 1e-320 in the still row's upper kept
    # modes, so that some parts turn subnormal under the multipliers.
    rng = np.random.default_rng(3)
    upper = slice(ws.n_kept // 2, ws.n_kept)
    size = upper.stop - upper.start
    spectra[still, upper] = (10.0 ** rng.uniform(-320.0, -300.0, size)
                             * np.exp(2j * np.pi * rng.uniform(size=size)))
    expected = spectra[still] * ws.lin_half[still] * ws.lin_half[still]
    assert count_subnormal(expected) > 0
    # The flush covers the kept modes; the others are zero already.
    parts = expected[:, :ws.n_kept].view(np.float64)
    parts[np.abs(parts) < TINY] = 0.0
    assert step(ws, spectra)[still].tobytes() == expected.tobytes()


def parseval_then_sup(spectra, n, threshold):
    """The blow-up rule without a pre-check: the Parseval bound, then the sup."""
    bound = float(np.sum(np.abs(spectra))) * (2.0 / n)
    if math.isfinite(bound) and bound <= threshold:
        return None
    sup = float(np.max(np.abs(scipy.fft.irfft(spectra, n=n, axis=-1))))
    if not math.isfinite(sup):
        return math.inf
    return sup if sup > threshold else None


@settings(max_examples=300, deadline=None)
@given(n=st.sampled_from([64, 256]),
       seed=st.integers(0, 2 ** 32 - 1),
       decay=st.floats(0.0, 3.0),
       spread=st.floats(0.0, 1.0),
       balance=st.sampled_from([0.0, 1e-3, 1.0]),
       threshold=st.sampled_from([1e-3, 1.0, 1e6]),
       sup=st.sampled_from([0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999, 1.001, 1.1, 2.0]),
       bad=st.sampled_from([None, math.nan, math.inf, -math.inf]),
       row=st.integers(0, 1),
       part=st.integers(0, 1),
       mode=st.integers(0, 32))
# Phase-aligned spectra of one row, whose sup is close to the Parseval
# bound, with the sup on either side of the threshold.
@example(n=64, seed=0, decay=0.1, spread=0.0, balance=0.0, threshold=1.0,
         sup=0.5, bad=None, row=0, part=0, mode=0)
@example(n=64, seed=0, decay=0.1, spread=0.0, balance=0.0, threshold=1.0,
         sup=1.001, bad=None, row=0, part=0, mode=0)
def test_detect_blow_up_matches_parseval_then_sup(n, seed, decay, spread, balance,
                                                  threshold, sup, bad, row, part,
                                                  mode):
    # Random moduli decaying like e^{-decay k} with phases in
    # spread * [-pi, pi], so that spread 0 brings the sup close to the
    # Parseval bound; v's row is balance times as large as u's. The spectra are
    # scaled so that the sup is the given multiple of the threshold, and
    # bad then replaces the real or the imaginary part of one mode of one
    # row.
    rng = np.random.default_rng(seed)
    modes = n // 2 + 1
    spectra = (np.abs(rng.standard_normal((2, modes)))
               * np.exp(-decay * np.arange(modes))
               * np.exp(1j * spread * rng.uniform(-np.pi, np.pi, (2, modes))))
    spectra[1] *= balance
    spectra *= sup * threshold / np.max(np.abs(np.fft.irfft(spectra, n=n)))
    if bad is not None:
        spectra.view(np.float64)[row, 2 * mode + part] = bad
    expected = parseval_then_sup(spectra, n, threshold)
    assert detect_blow_up(spectra, n, threshold) == expected
    # The inverse transform ignores the imaginary parts of modes 0 and n/2.
    if bad is None or (part == 1 and mode in (0, n // 2)):
        assert (expected is None) == (sup < 1.0)
    else:
        assert expected == math.inf


def test_detect_blow_up_flags_threshold_and_nan():
    n = 64
    small = np.fft.rfft(np.full(n, 0.5))
    zeros = np.zeros(n // 2 + 1, dtype=complex)
    assert detect_blow_up(np.stack((small, zeros)), n, threshold=1.0) is None
    big = np.fft.rfft(np.full(n, 3.0))
    assert detect_blow_up(np.stack((big, zeros)), n,
                          threshold=1.0) == pytest.approx(3.0)
    bad = zeros.copy()
    bad[0] = np.nan
    assert detect_blow_up(np.stack((bad, zeros)), n, threshold=1.0) == math.inf


@pytest.mark.parametrize("value", [1.5, math.nan], ids=["above", "nan"])
@pytest.mark.parametrize("row,mode", [(0, 1), (1, 16383)], ids=["first", "last"])
def test_detect_blow_up_reads_every_block(row, mode, value):
    # A spectrum of more than solver._DOT_BLOCK entries is bounded block by
    # block; a mode in the first or the last block alone must be flagged.
    n = 32768
    spectra = np.zeros((2, n // 2 + 1), dtype=complex)
    assert spectra.size > 3 * solver._DOT_BLOCK
    spectra[row, mode] = value * n / 2  # sup = value, at x = 0
    flagged = detect_blow_up(spectra, n, threshold=1.0)
    assert flagged == (pytest.approx(1.5) if value == 1.5 else math.inf)


def test_run_scenario_sampling_cadence():
    grid = Grid(half_width=60.0, n=256)
    scenario = Scenario(
        name="cadence", system=linear_system(),
        grid=grid,
        initial_u=InitialData(kind="gaussian", amplitude=1e-3),
        initial_v=InitialData(),
        t_end=1.0, dt=0.01, sample_dt=0.25,
    )
    result = record_scenario(scenario)
    np.testing.assert_allclose(result.times,
                               [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-12)


def test_run_memory_does_not_grow_with_sample_count():
    # A run through the CLI's per-sample reduction holds one sample at a
    # time: keeping all 1001 samples of n = 1024 would add about 16 MB.
    scenario = Scenario(
        name="memory",
        system=SystemSpec(d1=1.0, d2=1.0, c1=0.0, c2=1.0,
                          f1=(PolyTerm(1.0, 1, 1, 0),)),
        grid=Grid(half_width=60.0, n=1024),
        initial_u=InitialData(kind="gaussian", amplitude=1e-3),
        initial_v=InitialData(kind="gaussian", amplitude=1e-3),
        t_end=5.0, dt=0.005, sample_dt=0.5,
        envelope=EnvelopeSpec(kind="exponential", M=16.0),
        outputs=("trajectory", "envelope", "decay"))

    def peak(sample_dt):
        sc = dataclasses.replace(scenario, sample_dt=sample_dt)
        tracemalloc.start()
        try:
            samples = SampleReduction(sc)
            run_scenario(sc, validate_scenario(sc).initial, samples)
            diagnose(sc, samples)
            return len(samples.rows), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # At sample_dt = 0.5 the decay fit has its 8 samples at t >= 1.25.
    (few, few_peak), (many, many_peak) = peak(0.5), peak(0.005)
    assert (few, many) == (11, 1001)
    assert many_peak - few_peak < 2 ** 20


@pytest.mark.parametrize("t_end,sample_dt", [(1.0, 0.25), (1.0, 0.3), (0.5, 1.0)])
def test_sample_array_shape_and_initial_row(t_end, sample_dt):
    # One row at t = 0, one every sample_dt and one at t_end; row 0 is the
    # initial data bit for bit, not its dealiased spectral round trip.
    grid = Grid(half_width=10.0, n=128)
    system = SystemSpec(d1=1, d2=1, c1=0, c2=1, f1=(PolyTerm(1.0, 1, 1, 0),))
    rng = np.random.default_rng(7)
    initial = 1e-3 * rng.standard_normal((2, grid.n))
    ws = SpectralWorkspace(grid=grid, system=system, dt=0.05)
    result = record_run(ws, initial, t_end=t_end, sample_dt=sample_dt)
    steps, stride = round(t_end / 0.05), round(sample_dt / 0.05)
    expected = [0.0, *(0.05 * i for i in range(1, steps + 1)
                       if i % stride == 0 or i == steps)]
    assert result.times.shape == (len(expected),)
    assert result.fields.shape == (len(expected), 2, grid.n)
    np.testing.assert_allclose(result.times, expected, atol=1e-12)
    assert result.fields[0].tobytes() == initial.tobytes()


class TestNormalForm:
    grid = Grid(half_width=40.0, n=512)
    system = SystemSpec(d1=1.0, d2=1.0, c1=0.0, c2=1.0)

    def test_gaussian_input_has_no_residual(self):
        # A Gaussian u is all amplitude: A, the trapezoid integral of u as
        # the CLI takes it over the sample array, is its mass.
        t, a = 3.0, 0.7
        zeta = self.grid.points() + self.system.c1 * t
        u = a * gaussian_profile(zeta, t, self.system.d1)
        fields = np.stack((u, np.zeros(self.grid.n)))[None]
        A = np.trapezoid(fields[:, 0], dx=self.grid.dx, axis=-1)
        assert A.shape == (1,)
        assert A[0] == pytest.approx(a, abs=1e-9)

    def test_rate_constants(self):
        system = SystemSpec(d1=1.0, d2=1.0, c1=0.0, c2=1.0,
                            f1=(PolyTerm(1.0, 1, 1, 0), PolyTerm(0.1, 3, 0, 0)),
                            g2=(PolyTerm(1.0, 2, 0, 1),))
        mu, nu = normal_form_rates(system)
        assert mu == pytest.approx(0.9)
        assert nu == pytest.approx(0.9 / (4 * math.sqrt(3) * math.pi),
                                   rel=1e-12)
        assert nu == pytest.approx(0.0413497, abs=5e-8)

    def test_profile_unit_mass(self):
        x = np.linspace(-200, 200, 40001)
        sigma = gaussian_profile(x, 5.0, 1.3)
        assert np.trapezoid(sigma, x) == pytest.approx(1.0, abs=1e-12)


def test_strang_self_convergence_second_order():
    # Small nonlinear problem: dt halving must shrink the error by ~4.
    grid = Grid(half_width=30.0, n=256)
    system = SystemSpec(d1=1, d2=1, c1=0, c2=1,
                        f1=(PolyTerm(1.0, 1, 1, 0),),
                        f2=(PolyTerm(-1.0, 2, 0, 0),))
    x = grid.points()
    initial = np.stack((0.5 * np.exp(-x ** 2), 0.5 * np.exp(-x ** 2)))

    def final_u(dt):
        ws = SpectralWorkspace(grid=grid, system=system, dt=dt)
        return record_run(ws, initial, t_end=1.0, sample_dt=1.0).fields[-1, 0]

    coarse, mid, fine = (final_u(dt) for dt in (0.04, 0.02, 0.01))
    err_coarse = np.max(np.abs(coarse - mid))
    err_mid = np.max(np.abs(mid - fine))
    assert err_coarse / err_mid == pytest.approx(4.0, rel=0.1)
