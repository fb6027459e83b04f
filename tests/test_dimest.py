"""Dimension estimators against closed forms and brute-force oracles."""

import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import linregress

from fractdim import projections
from fractdim.dimest import (
    _ENERGY_CUTS,
    _STREAM_PAIRS,
    EnergyEstimate,
    PointCloud,
    RadiusSchedule,
    _GridIndex,
    _box_masses,
    _dyadic_radii,
    _radii_below,
    box_counting,
    coarse_spectrum,
    correlation_dimension,
    empirical_energy,
    pair_estimates,
    relative_dimension_bound,
    _linear_fit,
    _pair_profile,
    _pair_sample,
)
from fractdim.errors import EstimationError, PreconditionError
from fractdim.ifs import SimilarityIFS, sample_points, symbolic_dimension
from fractdim.measures import BernoulliMeasure
from fractdim.projections import (
    _SAMPLE_TOL,
    Subspace,
    _correlation_fit,
    _projection_schedule,
    marstrand_experiment,
    project_cloud,
    sample_subspace,
)
from fractdim.runtime import run_chunks, substream

CANTOR_DIM = math.log(2) / math.log(3)
# -(log(1/4) + log(3/4)) / (2 log(1/3)): exponent of the (1/4, 3/4)
# weighted triadic measure at q = 0, mean of the two digit exponents
SKEW_ALPHA0 = 0.7618595071429148
SKEW_S0 = 0.6309297535714574


def uniform_cloud(n, dim, seed):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.random((n, dim)))


def cantor_cloud(n, seed, p=0.5, depth=25):
    """Depth-`depth` truncations of triadic points with digit bias p."""
    rng = np.random.default_rng(seed)
    digits = rng.random((n, depth)) < p
    scales = 2.0 * 3.0 ** -np.arange(1, depth + 1)
    pts = digits @ scales
    return PointCloud(pts, truncation_error=3.0**-depth)


def uniform_weights(cloud):
    """The mass 1/N of each point of the cloud's uniform empirical measure."""
    return np.full(cloud.size, 1.0 / cloud.size)


class TestPointCloud:
    def test_uniform_weights_default(self):
        # three points in three boxes: each box holds one point's mass 1/3
        cloud = PointCloud([[0.0], [1.0], [2.0]])
        assert _box_masses(cloud, 0.5).tolist() == [1 / 3] * 3
        assert cloud.size == 3 and cloud.ambient_dim == 1

    def test_nonfinite_rejected(self):
        with pytest.raises(PreconditionError):
            PointCloud([[0.0], [math.inf]])
        with pytest.raises(PreconditionError, match="finite"):
            PointCloud._own(np.array([[0.0], [math.nan]]))

    def test_callers_array_is_copied_and_own_array_is_taken(self):
        pts = np.random.default_rng(0).random((50, 2))
        cloud = PointCloud(pts)
        assert not np.shares_memory(cloud.points, pts) and pts.flags.writeable
        owned = PointCloud._own(pts, truncation_error=0.5)
        assert owned.points is pts and not pts.flags.writeable
        assert owned.truncation_error == 0.5 and owned == PointCloud._own(pts, 0.5)

    def test_box_masses_sum_to_one(self):
        cloud = uniform_cloud(5000, 2, 3)
        masses = _box_masses(cloud, 0.07)
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_grid_anchored_at_cell_multiples(self):
        # triadic cylinders must land in single boxes of side 3^-k
        cloud = cantor_cloud(3000, 1, depth=20)
        assert _GridIndex(cloud.points, 3.0**-6).occupied == 2**6


class TestSchedule:
    def test_radii_are_dyadic(self):
        sch = RadiusSchedule(r0=1.0, levels=4, fit_lo=0, fit_hi=4)
        assert sch.radii == pytest.approx([1.0, 0.5, 0.25, 0.125, 0.0625])

    @pytest.mark.parametrize("r0, levels", [(1e-300, 30), (1.0, 1023), (3e-308, 1)])
    def test_subnormal_finest_radius_rejected(self, r0, levels):
        # a subnormal radius is not r0 * 2^-j bit for bit, which the pair
        # profile's binning needs
        with pytest.raises(PreconditionError, match="is subnormal"):
            _dyadic_radii(r0, levels)
        with pytest.raises(PreconditionError, match="is subnormal"):
            RadiusSchedule(r0=r0, levels=levels, fit_lo=0, fit_hi=levels)

    @pytest.mark.parametrize("r0, levels", [(1e-300, 25), (1.0, 1022), (3e-308, 0)])
    def test_normal_finest_radius_accepted(self, r0, levels):
        radii = _dyadic_radii(r0, levels)
        assert radii[-1] >= np.finfo(float).tiny
        assert radii[-1] == math.ldexp(r0, -levels)

    def test_short_fit_window_rejected(self):
        with pytest.raises(PreconditionError):
            RadiusSchedule(r0=1.0, levels=4, fit_lo=1, fit_hi=3)

    def test_window_outside_levels_rejected(self):
        with pytest.raises(PreconditionError):
            RadiusSchedule(r0=1.0, levels=4, fit_lo=0, fit_hi=5)

    def test_floor_guard(self):
        cloud = PointCloud(np.linspace(0, 1, 50)[:, None], truncation_error=1e-3)
        sch = RadiusSchedule(r0=0.5, levels=10, fit_lo=0, fit_hi=10)
        with pytest.raises(PreconditionError):
            sch.check_floor(cloud)
        ok = RadiusSchedule(r0=0.5, levels=5, fit_lo=0, fit_hi=5)
        ok.check_floor(cloud)


class TestCorrelationDimension:
    def test_uniform_square(self):
        cloud = uniform_cloud(100_000, 2, 21)
        sch = RadiusSchedule(r0=0.25, levels=6, fit_lo=1, fit_hi=6)
        est = correlation_dimension(cloud, sch, seed=1)
        assert est.value == pytest.approx(2.0, abs=0.1)

    def test_cantor(self):
        cloud = cantor_cloud(100_000, 23)
        sch = RadiusSchedule(r0=0.25, levels=7, fit_lo=0, fit_hi=7)
        est = correlation_dimension(cloud, sch, seed=1)
        assert est.value == pytest.approx(CANTOR_DIM, abs=0.05)

    def test_atom_is_zero(self):
        cloud = PointCloud(np.zeros((1500, 1)))
        sch = RadiusSchedule(r0=0.5, levels=4, fit_lo=0, fit_hi=4)
        est = correlation_dimension(cloud, sch, seed=0)
        assert est.value == 0.0

    def test_small_cloud_rejected(self):
        cloud = uniform_cloud(500, 1, 0)
        sch = RadiusSchedule(r0=0.25, levels=4, fit_lo=0, fit_hi=4)
        with pytest.raises(PreconditionError):
            correlation_dimension(cloud, sch)

    def test_worker_independent(self):
        cloud = uniform_cloud(30_000, 1, 2)
        sch = RadiusSchedule(r0=0.25, levels=5, fit_lo=0, fit_hi=5)
        a = correlation_dimension(cloud, sch, seed=5, workers=1)
        b = correlation_dimension(cloud, sch, seed=5, workers=4)
        assert np.array_equal(a.profile, b.profile)
        assert a.value == b.value


class TestEnergy:
    def test_s_zero_is_exactly_one(self):
        cloud = uniform_cloud(5000, 1, 3)
        est = empirical_energy(cloud, 0.0, seed=0)
        assert est.value == 1.0
        assert not est.diverged

    def test_uniform_interval_closed_form(self):
        # E |x - y|^-s on [0, 1]^2 Lebesgue pairs = 2 / ((1-s)(2-s))
        cloud = uniform_cloud(100_000, 1, 31)
        est = empirical_energy(cloud, 0.5, seed=2)
        assert not est.diverged
        assert est.value == pytest.approx(8 / 3, rel=0.05)

    def test_supercritical_divergence_flag(self):
        cloud = uniform_cloud(100_000, 1, 31)
        est = empirical_energy(cloud, 1.5, seed=2)
        assert est.diverged

    def test_zero_pair_weight_reported(self):
        pts = np.concatenate([np.zeros(500), np.linspace(1, 2, 1500)])
        cloud = PointCloud(pts[:, None])
        est = empirical_energy(cloud, 0.5, seed=4)
        assert est.zero_pair_weight > 0
        assert math.isfinite(est.value)

    def test_all_coincident_rejected(self):
        cloud = PointCloud(np.zeros((2000, 1)))
        with pytest.raises(EstimationError):
            empirical_energy(cloud, 0.5, seed=0)

    def test_negative_exponent_rejected(self):
        cloud = uniform_cloud(2000, 1, 0)
        with pytest.raises(PreconditionError):
            empirical_energy(cloud, -1.0)

    @pytest.mark.parametrize("s", [math.inf, math.nan])
    def test_nonfinite_exponent_rejected(self, s):
        cloud = uniform_cloud(2000, 1, 0)
        with pytest.raises(PreconditionError, match="finite and nonnegative"):
            empirical_energy(cloud, s)

    def test_overflow_is_not_reported_as_coincidence(self):
        # distances below 1 raised to -400 overflow float64
        cloud = uniform_cloud(2000, 1, 0)
        with pytest.raises(EstimationError, match="overflows float64"):
            empirical_energy(cloud, 400.0)

    def test_worker_independent(self):
        cloud = uniform_cloud(30_000, 1, 5)
        a = empirical_energy(cloud, 0.7, seed=9, workers=1)
        b = empirical_energy(cloud, 0.7, seed=9, workers=4)
        assert a.value == b.value and a.half_value == b.half_value


def reference_pair_sample(n, seed, max_pairs):
    """The serial _pair_sample the threaded draw replaced, kept verbatim."""
    if n < 1000:
        raise PreconditionError("need at least 1000 points")
    if max_pairs < 1:
        raise PreconditionError("pair budget must be at least 1")
    n_strata = max(1, min(max_pairs // n, n - 1))
    per_stratum = min(n, max_pairs)
    index = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    buf = np.empty((2, n_strata * per_stratum), dtype=index)
    left = np.arange(per_stratum, dtype=index)
    pairs = []
    end = 0
    for t in range(n_strata):
        partner = substream(seed, _STREAM_PAIRS, t).permutation(n)[:per_stratum]
        keep = partner != left
        a, b = buf[:, end : end + np.count_nonzero(keep)]
        a[...], b[...] = left[keep], partner[keep]
        end += a.size
        pairs.append((a, b))
    return pairs


def reference_correlation_dimension(cloud, schedule, seed, max_pairs):
    """The separate correlation call: its own draw and a pass with no powers."""
    pairs = reference_pair_sample(cloud.size, seed, max_pairs)
    schedule.check_floor(cloud)
    ((total, hits, _),) = _pair_profile(cloud, [schedule.radii], (), pairs, 1, [cloud.points])
    return _correlation_fit(schedule, total, hits)


def reference_empirical_energy(cloud, s, seed, max_pairs):
    """The separate energy call: its own draw and pass, read from the cut rows."""
    if not (0 <= s < math.inf):
        raise PreconditionError(
            f"energy exponent must be finite and nonnegative, got {s}"
        )
    pairs = reference_pair_sample(cloud.size, seed, max_pairs)
    ((_, _, blocks),) = _pair_profile(cloud, [()], (s,), pairs, 1, [cloud.points])

    def mean(block):
        total, zero, energies = block
        return energies[0] / (total - zero) if total > zero else math.inf

    running = [mean(b) for b in blocks]
    total, zero, _ = blocks[-1]
    if total == zero:
        raise EstimationError("all sampled pairs coincide; energy undefined")
    if not math.isfinite(running[-1]):
        raise EstimationError(f"the {s}-energy of the sampled pairs overflows float64")
    diverged = any(
        math.isinf(a) or abs(b - a) > 0.1 * abs(b)
        for a, b in zip(running, running[1:])
    )
    return EnergyEstimate(
        value=float(running[-1]),
        diverged=bool(diverged),
        half_value=float(running[-2]),
        zero_pair_weight=float(zero / total),
        s=float(s),
    )


def reference_pair_profile(cloud, radii, powers, seed, max_pairs, workers):
    """The per-call pair profile the binned engine replaced, on counts.

    Draws its own sample and counts masks over nested prefix cuts.
    """
    n = cloud.size
    n_strata = max(1, min(max_pairs // n, n - 1))
    per_stratum = min(n, max_pairs)
    pts = cloud.points

    def stratum(t, start, stop):
        rng = substream(seed, _STREAM_PAIRS, t)
        partner = rng.permutation(n)[:per_stratum]
        left = np.arange(partner.size)
        keep = partner != left
        a = left[keep]
        b = partner[keep]
        d = np.sqrt(np.sum((pts[a] - pts[b]) ** 2, axis=1))

        def stats(sl):
            ds = d[sl]
            nz = ds > 0
            hits = np.array([np.count_nonzero(ds <= r) for r in radii], dtype=int)
            energies = np.array([np.sum(ds[nz] ** (-s)) for s in powers])
            return ds.size, hits, np.count_nonzero(~nz), energies

        cuts = [d.size // c for c in _ENERGY_CUTS]
        return tuple(stats(slice(0, c)) for c in cuts)

    results = run_chunks(stratum, n_strata, workers=workers, chunk=1)

    def combine(rows):
        total = sum(r[0] for r in rows)
        hits = sum((r[1] for r in rows), np.zeros(len(radii), dtype=int))
        zeros = sum(r[2] for r in rows)
        energies = sum((r[3] for r in rows), np.zeros(len(powers)))
        return total, hits, zeros, energies

    return tuple(combine([r[k] for r in results]) for k in range(len(_ENERGY_CUTS)))


def compare_and_add_below(d, radii):
    """The per-radius binning the bit rule replaced, kept verbatim."""
    below = np.zeros(d.size, dtype=np.min_scalar_type(radii.size))
    for r in radii:
        below += d > r
    return below


@st.composite
def dyadic_schedules(draw):
    """(r0, levels): any normal r0, any level count whose finest radius is normal."""
    mantissa = draw(st.integers(0, 2**52 - 1))
    exponent = draw(st.integers(-1022, 1023))
    r0 = math.ldexp(1.0 + mantissa / 2**52, exponent)
    return r0, draw(st.integers(0, exponent + 1022))


class TestRadiusBits:
    """The float-bit binning against the compare-and-add loop."""

    @settings(max_examples=300, deadline=None)
    @given(dyadic_schedules(), st.lists(st.floats(0.0, allow_nan=False), max_size=20))
    def test_matches_compare_and_add(self, schedule, extra):
        r0, levels = schedule
        radii = _dyadic_radii(r0, levels)
        if levels <= 1074:
            # the product the schedule was built by while 0.5**j was nonzero
            assert radii.tobytes() == (r0 * 0.5 ** np.arange(levels + 1)).tobytes()
        tiny = np.finfo(float).tiny
        d = np.concatenate([
            radii,
            np.nextafter(radii, 0.0),
            np.nextafter(radii, math.inf),
            [0.0, 5e-324, tiny / 2, np.nextafter(tiny, 0.0), tiny, 1e308,
             np.finfo(float).max, math.inf],
            extra,
        ])
        got = _radii_below(d, radii)
        ref = compare_and_add_below(d, radii)
        # int64, the type bincount reads; the counts equal the loop's exactly
        assert got.dtype == np.int64
        assert np.array_equal(got, ref)

    def test_every_bin_is_reached(self):
        # a full-range schedule: 1023 + 1022 levels, finest radius tiny
        radii = _dyadic_radii(2.0**1023, 2045)
        assert radii[-1] == np.finfo(float).tiny
        d = np.concatenate([[0.0], radii[::-1], [math.inf]])
        assert np.array_equal(_radii_below(d, radii), compare_and_add_below(d, radii))
        assert np.array_equal(np.unique(_radii_below(d, radii)), np.arange(radii.size + 1))


class TestOneCoordinateDistance:
    """A one-coordinate view's distance |step| against sqrt(step * step)."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(
        st.floats(2.0**-511, 2.0**512, exclude_max=True).flatmap(
            lambda x: st.sampled_from([x, -x])
        ),
        min_size=1, max_size=20,
    ))
    def test_abs_is_the_rounded_root_in_range(self, steps):
        # the square is normal and finite, so its rounded root is |step|
        d = np.array(steps + [2.0**-511, np.nextafter(2.0**512, 0.0)])
        assert np.sqrt(d * d).tobytes() == np.abs(d).tobytes()

    @pytest.mark.parametrize(
        "step",
        [2.0**512, np.finfo(float).max, np.nextafter(2.0**-520, 1.0), 2.0**-538, 5e-324],
        ids=["square-overflows", "largest", "square-loses-bits", "square-underflows",
             "smallest-subnormal"],
    )
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_outside_the_range_the_distance_is_exact(self, step, sign):
        # the square overflows or loses bits, so the old root moved the
        # distance; the profile's distance is |step| itself
        d = np.array([sign * step])
        with np.errstate(over="ignore"):
            assert np.sqrt(d * d)[0] != step
        view = np.array([[0.0], [sign * step]])
        pairs = [(np.array([1], dtype=np.int32), np.array([0], dtype=np.int32))]
        # every normal radius, from 2^1023 down to the smallest normal
        radii = _dyadic_radii(2.0**1023, 2045)
        powers = (0.0, 0.5)
        ((total, hits, cuts),) = _pair_profile(None, [radii], powers, pairs, 1, [view])
        assert total == 1.0
        assert np.array_equal(hits, (step <= radii).astype(float))
        _, zero, energies = cuts[-1]
        assert zero == 0.0
        assert energies.tobytes() == np.append(1.0, np.array([step]) ** -0.5).tobytes()


def oracle_cloud(kind):
    rng = np.random.default_rng(61)
    if kind == "uniform-1d":
        return PointCloud(rng.random((4000, 1)))
    if kind == "dirichlet-2d":
        # the planar uniform case; the name is kept from when it carried
        # Dirichlet weights, which clouds no longer take
        return PointCloud(rng.random((3000, 2)))
    if kind == "coincident-2d":
        # a 12 x 12 lattice: many sampled pairs sit at distance zero
        pts = rng.integers(0, 12, (3000, 2)) / 12
        return PointCloud(pts)
    pts = rng.integers(0, 40, (2500, 1)) / 40
    return PointCloud(pts)


class TestPairEngine:
    @pytest.mark.parametrize("n, max_pairs", [(1500, 1000), (1200, 5000), (1000, 10**7)])
    def test_sample_is_the_per_call_draw(self, n, max_pairs):
        pairs = _pair_sample(n, 9, max_pairs)
        per_stratum = min(n, max_pairs)
        assert len(pairs) == max(1, min(max_pairs // n, n - 1))
        for t, (a, b) in enumerate(pairs):
            partner = substream(9, _STREAM_PAIRS, t).permutation(n)[:per_stratum]
            left = np.arange(partner.size)
            keep = partner != left
            assert a.dtype == np.int32 and b.dtype == np.int32
            assert np.array_equal(a, left[keep])
            assert np.array_equal(b, partner[keep])

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "n, max_pairs",
        [(1000, 10**7), (1000, 2_500), (1500, 1000), (1200, 5000), (3001, 100_003)],
    )
    def test_threaded_draw_matches_serial_reference(self, n, max_pairs, workers):
        ref = reference_pair_sample(n, 9, max_pairs)
        got = _pair_sample(n, 9, max_pairs, workers)
        assert len(got) == len(ref)
        for (a, b), (ref_a, ref_b) in zip(got, ref):
            assert a.dtype == ref_a.dtype and b.dtype == ref_b.dtype
            assert np.array_equal(a, ref_a) and np.array_equal(b, ref_b)
        # every stratum is a view of one buffer, packed as the serial loop wrote it
        buf, ref_buf = got[0][0].base, ref[0][0].base
        assert buf.shape == ref_buf.shape and buf.dtype == ref_buf.dtype
        assert all(a.base is buf and b.base is buf for a, b in got)
        end = sum(a.size for a, _ in got)
        assert np.array_equal(buf[:, :end], ref_buf[:, :end])

    def test_threads_fill_disjoint_slots_under_frequent_switches(self):
        # more workers than cores and a short switch interval interleave the
        # strata's writes into the shared buffer as much as possible
        ref = reference_pair_sample(2000, 5, 60_001)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = time.perf_counter()
            got = _pair_sample(2000, 5, 60_001, workers=6)
            assert time.perf_counter() - start < 30.0
        finally:
            sys.setswitchinterval(interval)
        for (a, b), (ref_a, ref_b) in zip(got, ref, strict=True):
            assert np.array_equal(a, ref_a) and np.array_equal(b, ref_b)

    def test_a_sample_that_keeps_no_pair_is_refused(self):
        # a one-pair budget whose only draw pairs point 0 with itself
        assert reference_pair_sample(1000, 5891, 1)[0][0].size == 0
        for workers in (1, 2):
            with pytest.raises(EstimationError, match="pair budget of 1 kept no pair"):
                _pair_sample(1000, 5891, 1, workers)
        assert sum(a.size for a, _ in _pair_sample(1000, 5890, 1)) == 1

    def test_sample_preconditions(self):
        with pytest.raises(PreconditionError):
            _pair_sample(5000, 0, 0)
        with pytest.raises(PreconditionError):
            _pair_sample(999, 0, 10_000)
        sch = RadiusSchedule(r0=0.25, levels=4, fit_lo=0, fit_hi=4)
        with pytest.raises(PreconditionError):
            correlation_dimension(uniform_cloud(2000, 1, 0), sch, max_pairs=0)

    @pytest.mark.parametrize(
        "kind", ["uniform-1d", "dirichlet-2d", "coincident-2d", "coincident-1d"]
    )
    @pytest.mark.parametrize("max_pairs", [35_000, 1_500])
    def test_matches_nested_mask_reference(self, kind, max_pairs):
        cloud = oracle_cloud(kind)
        radii = RadiusSchedule(r0=0.5, levels=10, fit_lo=0, fit_hi=10).radii
        powers = (0.0, 0.4, 1.3)
        ref = reference_pair_profile(cloud, radii, powers, 3, max_pairs, 1)
        pairs = _pair_sample(cloud.size, 3, max_pairs)
        got = _pair_profile(cloud, [radii], powers, pairs, 1, [cloud.points])[0]
        again = _pair_profile(cloud, [radii], powers, pairs, 3, [cloud.points])[0]
        total, hits, cuts = got
        assert total == again[0] and hits.tobytes() == again[1].tobytes()
        assert len(cuts) == len(again[2]) == len(ref) == len(_ENERGY_CUTS)
        # counts are exact; only the energy sums round
        assert total == ref[-1][0]
        assert np.array_equal(hits, ref[-1][1])
        for row, row_again, cut_ref in zip(cuts, again[2], ref):
            # pairs, zero-distance pairs, energies
            for field, field_again in zip(row, row_again, strict=True):
                assert np.array_equal(field, field_again)
            pairs_in_cut, zero, energies = row
            assert pairs_in_cut == cut_ref[0] and zero == cut_ref[2]
            np.testing.assert_allclose(energies, cut_ref[3], rtol=1e-14, atol=0)
        if kind.startswith("coincident"):
            assert ref[-1][2] > 0

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize(
        "kind", ["uniform-1d", "dirichlet-2d", "coincident-2d", "coincident-1d"]
    )
    def test_shared_pass_equals_separate_passes(self, kind, workers):
        cloud = oracle_cloud(kind)
        radii = RadiusSchedule(r0=0.5, levels=10, fit_lo=0, fit_hi=10).radii
        powers = (0.0, 0.4, 1.3)
        pairs = _pair_sample(cloud.size, 3, 35_000, workers)
        (shared,) = _pair_profile(cloud, [radii], powers, pairs, workers, [cloud.points])
        (corr,) = _pair_profile(cloud, [radii], (), pairs, workers, [cloud.points])
        # a correlation-only call cuts no rows
        assert corr[2] == ()
        # bitwise: totals and hits, then each exponent's cut rows
        assert shared[0] == corr[0] and shared[1].tobytes() == corr[1].tobytes()
        for k, s in enumerate(powers):
            (energy,) = _pair_profile(cloud, [()], (s,), pairs, workers, [cloud.points])
            assert energy[0] == shared[0] and energy[1].size == 0
            for (total, zero, energies), energy_cut in zip(shared[2], energy[2], strict=True):
                assert total == energy_cut[0] and zero == energy_cut[1]
                assert energies[k : k + 1].tobytes() == energy_cut[2].tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_draw_gives_the_separate_estimates(self, workers):
        cloud = cantor_cloud(20_000, 7)
        schedule = RadiusSchedule(r0=0.5, levels=8, fit_lo=1, fit_hi=8)
        exponents = [0.0, 0.3, 0.6, 0.9]
        fit, energies = pair_estimates(cloud, schedule, exponents, 4, 150_000, workers)
        ref = reference_correlation_dimension(cloud, schedule, 4, 150_000)
        assert (fit.value, fit.stderr) == (ref.value, ref.stderr)
        assert fit.profile.tobytes() == ref.profile.tobytes()
        assert list(energies) == [
            reference_empirical_energy(cloud, s, 4, 150_000) for s in exponents
        ]
        assert pair_estimates(cloud, None, exponents, 4, 150_000, workers)[0] is None

    def test_energies_are_checked_as_they_are_read(self):
        cloud = uniform_cloud(2000, 1, 0)
        sch = RadiusSchedule(r0=0.25, levels=4, fit_lo=0, fit_hi=4)
        _, energies = pair_estimates(cloud, sch, [0.5, 400.0, -1.0], max_pairs=20_000)
        assert next(energies) == empirical_energy(cloud, 0.5, max_pairs=20_000)
        with pytest.raises(EstimationError, match="overflows float64"):
            next(energies)
        # a bad first exponent is refused before any draw, as a separate call did
        _, energies = pair_estimates(PointCloud(np.zeros((10, 1))), None, [math.nan])
        with pytest.raises(PreconditionError, match="finite and nonnegative"):
            next(energies)

    def test_marstrand_matches_per_direction_reference(self):
        ifs = SimilarityIFS(
            ratios=[1 / 3] * 4,
            translations=[[0, 0], [2 / 3, 0], [0, 2 / 3], [2 / 3, 2 / 3]],
        )
        measure = BernoulliMeasure([0.1, 0.2, 0.3, 0.4])
        seed, count, max_pairs, directions = 5, 20_000, 200_000, 4
        rep = marstrand_experiment(
            ifs, measure, 1, directions, count, seed, max_pairs=max_pairs, workers=2
        )
        cloud = sample_points(ifs, measure, count, tol=_SAMPLE_TOL, seed=seed)
        predicted = min(1.0, symbolic_dimension(measure, ifs).value)
        for j in range(directions):
            proj = project_cloud(cloud, sample_subspace(2, 1, seed, index=j))
            schedule = _projection_schedule(
                proj.points, proj.truncation_error, predicted, max_pairs
            )
            radii, win = schedule.radii, schedule.fit_slice
            full = reference_pair_profile(proj, radii, (), seed, max_pairs, 1)[-1]
            ref = linregress(np.log(radii[win]), np.log(full[1][win] / full[0]))
            assert rep.estimates[j] == pytest.approx(ref.slope, rel=0, abs=1e-12)
            assert rep.stderrs[j] == pytest.approx(ref.stderr, rel=1e-9)


def per_direction_pair_profile(cloud, radii, powers, pairs, workers):
    """The pair profile before direction blocks, on counts: one cloud per call."""
    cols = [np.ascontiguousarray(c) for c in cloud.points.T]
    radii = np.asarray(radii, dtype=float)
    below_dtype = np.min_scalar_type(radii.size)

    def binned_hits(d):
        below = np.zeros(d.size, dtype=below_dtype)
        for r in radii:
            below += d > r
        # d <= radii[j] iff fewer than radii.size - j radii lie below d
        return np.cumsum(np.bincount(below, minlength=radii.size + 1))[-2::-1]

    def segment(d):
        hits = binned_hits(d) if radii.size else ()
        nz = d > 0
        energies = [np.sum(d[nz] ** (-s)) for s in powers]
        return [d.size, *hits, d.size - np.count_nonzero(nz), *energies]

    def stratum(t, start, stop):
        a, b = pairs[t]
        # coordinate-wise accumulation: the same rounding as a row sum
        # for ambient dimension below 8
        squares = [(c[a] - c[b]) ** 2 for c in cols]
        d = np.sqrt(sum(squares[1:], squares[0]))
        edges = [0] + [d.size // c for c in _ENERGY_CUTS]
        rows = [segment(d[lo:hi]) for lo, hi in zip(edges, edges[1:])]
        return np.cumsum(rows, axis=0, dtype=float)

    results = run_chunks(stratum, len(pairs), workers=workers, chunk=1)
    sums = results[0].copy()
    for r in results[1:]:
        sums += r
    h = radii.size
    return tuple((row[0], row[1 : 1 + h], row[1 + h], row[2 + h :]) for row in sums)


def assert_same_profile(got, ref, powers):
    """Every field the profile returns equal bit for bit to the reference's.

    The total and hits are the reference's full-sample cut; the cut rows,
    returned only with powers, are each cut's (pairs, zero-distance pairs,
    energies).
    """
    assert len(ref) == len(_ENERGY_CUTS)
    total, hits, cuts = got
    fields = [(total, ref[-1][0]), (hits, ref[-1][1])]
    if powers:
        assert len(cuts) == len(ref)
        for row, (pairs, _, zero, energies) in zip(cuts, ref):
            fields += zip(row, (pairs, zero, energies), strict=True)
    else:
        assert cuts == ()
    for field_got, field_ref in fields:
        field_got, field_ref = np.asarray(field_got), np.asarray(field_ref)
        assert field_got.dtype == field_ref.dtype
        assert field_got.shape == field_ref.shape
        assert field_got.tobytes() == field_ref.tobytes()


# five lines through the origin; the floor-levels cloud's truncation floor
# caps the schedule at 6 levels near the axes and at 7 near the diagonal
BLOCK_ANGLES = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 8, 0.1)


def direction_views(kind):
    """A planar cloud and its five projections onto BLOCK_ANGLES."""
    if kind == "floor-levels":
        rng = np.random.default_rng(17)
        scales = 2.0 * 3.0 ** -np.arange(1, 21)
        pts = (rng.random((3000, 2, 20)) < 0.5) @ scales
        cloud = PointCloud(pts, truncation_error=0.25 * 2**-6.8 / 10)
    else:
        cloud = oracle_cloud(kind)
    lines = [Subspace([[math.cos(t), math.sin(t)]]) for t in BLOCK_ANGLES]
    return cloud, [project_cloud(cloud, v) for v in lines]


class TestDirectionBlocks:
    """One pass per stratum for a block of views against one call per view."""

    @pytest.mark.parametrize("block", [1, 2, 3])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("powers", [(), (0.0, 0.4, 1.3)])
    @pytest.mark.parametrize("kind", ["floor-levels", "coincident-2d"])
    def test_views_match_per_direction(self, kind, powers, workers, block):
        max_pairs = 35_000
        cloud, projs = direction_views(kind)
        pairs = _pair_sample(cloud.size, 3, max_pairs)
        schedules = [
            _projection_schedule(p.points, p.truncation_error, 1.0, max_pairs)
            for p in projs
        ]
        if kind == "floor-levels":
            assert [s.levels for s in schedules] == [6, 7, 6, 7, 6]
        got = []
        for lo in range(0, len(projs), block):
            views = [p.points for p in projs[lo : lo + block]]
            radii = [s.radii for s in schedules[lo : lo + block]]
            got += _pair_profile(cloud, radii, powers, pairs, workers, views)
        assert len(got) == len(projs)
        for proj, schedule, profile in zip(projs, schedules, got):
            ref = per_direction_pair_profile(proj, schedule.radii, powers, pairs, 1)
            assert_same_profile(profile, ref, powers)
        if kind == "coincident-2d" and powers:
            assert got[0][2][-1][1] > 0

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize(
        "kind", ["uniform-1d", "dirichlet-2d", "coincident-2d", "coincident-1d"]
    )
    def test_single_cloud_is_a_block_of_one(self, kind, workers):
        cloud = oracle_cloud(kind)
        radii = RadiusSchedule(r0=0.5, levels=10, fit_lo=0, fit_hi=10).radii
        pairs = _pair_sample(cloud.size, 3, 35_000)
        for powers in [(), (0.0, 0.4, 1.3)]:
            (got,) = _pair_profile(cloud, [radii], powers, pairs, workers, [cloud.points])
            ref = per_direction_pair_profile(cloud, radii, powers, pairs, 1)
            assert_same_profile(got, ref, powers)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_marstrand_blocks_match_per_direction(self, monkeypatch, block, workers):
        ifs = SimilarityIFS(
            ratios=[1 / 3] * 4,
            translations=[[0, 0], [2 / 3, 0], [0, 2 / 3], [2 / 3, 2 / 3]],
        )
        measure = BernoulliMeasure([0.1, 0.2, 0.3, 0.4])
        # five directions: no block size above divides them evenly but 1
        seed, count, max_pairs, directions = 5, 20_000, 100_000, 5
        seen = []

        def recorded(cloud, radii, powers, pairs, workers, views):
            seen.append([np.array(v) for v in views])
            return _pair_profile(cloud, radii, powers, pairs, workers, views)

        monkeypatch.setattr(projections, "_DIRECTION_BLOCK", block)
        monkeypatch.setattr(projections, "_pair_profile", recorded)
        rep = marstrand_experiment(
            ifs, measure, 1, directions, count, seed, max_pairs=max_pairs, workers=workers
        )
        sizes = [min(block, directions - lo) for lo in range(0, directions, block)]
        assert [len(views) for views in seen] == sizes
        cloud = sample_points(ifs, measure, count, tol=_SAMPLE_TOL, seed=seed)
        predicted = min(1.0, symbolic_dimension(measure, ifs).value)
        pairs = _pair_sample(cloud.size, seed, max_pairs)
        for j in range(directions):
            proj = project_cloud(cloud, sample_subspace(2, 1, seed, index=j))
            view = seen[j // block][j % block]
            assert view.tobytes() == proj.points.tobytes()
            schedule = _projection_schedule(
                proj.points, proj.truncation_error, predicted, max_pairs
            )
            full = per_direction_pair_profile(proj, schedule.radii, (), pairs, 1)[-1]
            est = _correlation_fit(schedule, *full[:2])
            assert rep.estimates[j] == est.value
            assert rep.stderrs[j] == est.stderr


def fit_cases():
    rng = np.random.default_rng(8)
    cases = []
    for n in (3, 4, 7, 13, 30):
        x = rng.standard_normal(n)
        cases.append((x, 2.0 * x + rng.standard_normal(n)))
    x = np.log(0.5 ** np.arange(12))
    cases += [
        (x, 0.63 * x + 1e-13 * rng.standard_normal(12)),  # 1 - r^2 cancels
        (x, -1.7 * x + 5.0),  # exact line
        (x[:2], x[:2] ** 2),  # two points carry no error estimate
        (x[:3], np.array([1.0, 1.0 + 1e-9, 1.0])),  # nearly constant
        (1e6 + rng.random(6), rng.random(6)),  # large offset in x
        (np.array([0.0, 1e-8, 2e-8, 1.0]), rng.random(4)),  # clustered x
    ]
    return cases


class TestLinearFit:
    @pytest.mark.parametrize("x, y", fit_cases())
    def test_matches_linregress(self, x, y):
        slope, stderr = _linear_fit(x, y)
        ref = linregress(x, y)
        assert slope == pytest.approx(ref.slope, rel=1e-12, abs=0)
        assert stderr == pytest.approx(ref.stderr, rel=1e-12, abs=0)


class TestBoxCounting:
    def test_uniform_interval(self):
        cloud = uniform_cloud(100_000, 1, 41)
        sch = RadiusSchedule(r0=0.5, levels=8, fit_lo=2, fit_hi=8)
        est = box_counting(cloud, sch)
        assert est.value == pytest.approx(1.0, abs=0.05)

    def test_cantor(self):
        # the dyadic-window OLS slope carries a lacunarity bias that decays
        # with window depth; 12 octaves brings it inside 0.05 of log2/log3
        cloud = cantor_cloud(400_000, 43)
        sch = RadiusSchedule(r0=0.5, levels=13, fit_lo=2, fit_hi=13)
        est = box_counting(cloud, sch)
        assert est.value == pytest.approx(CANTOR_DIM, abs=0.05)

    def test_cantor_counts_match_exact_enumeration(self):
        # every dyadic box meeting the attractor is occupied at this density,
        # so the empirical counts equal the exact intersection counts
        cloud = cantor_cloud(400_000, 43)
        sch = RadiusSchedule(r0=0.5, levels=9, fit_lo=0, fit_hi=9)
        est = box_counting(cloud, sch)
        exact = [2, 4, 6, 10, 16, 28, 42, 70, 102, 154]
        assert np.array_equal(est.profile, exact)

    def test_counts_monotone(self):
        cloud = uniform_cloud(20_000, 2, 5)
        sch = RadiusSchedule(r0=0.5, levels=6, fit_lo=0, fit_hi=6)
        est = box_counting(cloud, sch)
        assert np.all(np.diff(est.profile) >= 0)


def weighted_square_cloud(n, seed):
    """Weighted 4-map square IFS: two coordinates of biased binary digits."""
    ifs = SimilarityIFS(
        ratios=[0.5] * 4, translations=[[0, 0], [0.5, 0], [0, 0.5], [0.5, 0.5]]
    )
    return sample_points(ifs, BernoulliMeasure([0.1, 0.2, 0.3, 0.4]), n, tol=1e-7, seed=seed)


class TestBoxCountPyramid:
    """One sort of the finest lattice against a grid built at every radius."""

    @pytest.mark.parametrize(
        "make_cloud, schedule",
        [
            (lambda: cantor_cloud(50_000, 7), RadiusSchedule(0.5, 14, 2, 14)),
            (lambda: weighted_square_cloud(30_000, 8), RadiusSchedule(0.25, 10, 1, 10)),
            (
                lambda: PointCloud(
                    np.random.default_rng(9).standard_normal((30_000, 3)) - 7.3
                ),
                RadiusSchedule(0.8, 9, 1, 9),
            ),
            (lambda: uniform_cloud(30_000, 2, 10), RadiusSchedule(0.3, 11, 1, 11)),
            (lambda: cantor_cloud(30_000, 11), RadiusSchedule(1 / 3, 12, 1, 12)),
        ],
        ids=["cantor-1d", "weighted-square-2d", "negative-3d", "r0-0.3", "r0-third"],
    )
    def test_counts_match_grid_per_radius(self, make_cloud, schedule):
        cloud = make_cloud()
        est = box_counting(cloud, schedule)
        ref = [_GridIndex(cloud.points, r).occupied for r in schedule.radii]
        assert est.profile.tolist() == ref

    def test_min_index_off_the_coarse_lattice(self):
        # a finest minimum index that is no multiple of 2^levels: shifting
        # indices relative to that minimum would move the coarse box edges
        rng = np.random.default_rng(12)
        pts = 5.123 + 0.01 * rng.random((20_000, 2))
        sch = RadiusSchedule(1 / 3, 16, 1, 16)
        k_min = _GridIndex(pts, sch.radii[-1]).k_min
        assert np.all(k_min % 2**sch.levels != 0)
        est = box_counting(PointCloud(pts), sch)
        ref = [_GridIndex(pts, r).occupied for r in sch.radii]
        assert est.profile.tolist() == ref

    def test_grid_too_fine_rejected(self):
        cloud = PointCloud(np.random.default_rng(13).random((100, 3)) * 1e6)
        sch = RadiusSchedule(1e-6, 4, 0, 4)
        with pytest.raises(PreconditionError, match="grid too fine"):
            box_counting(cloud, sch)
        with pytest.raises(PreconditionError, match="grid too fine"):
            _GridIndex(cloud.points, 1e-6)


class TestGridIndexCells:
    @pytest.mark.parametrize("dim, cell", [(1, 2.0**-9), (2, 0.05), (3, 0.2)])
    def test_cells_match_unique(self, dim, cell):
        rng = np.random.default_rng(dim)
        cloud = PointCloud(rng.standard_normal((5000, dim)))
        grid = _GridIndex(cloud.points, cell)
        cell_ids, cell_starts = np.unique(grid.sorted_ids, return_index=True)
        assert np.array_equal(grid.cell_ids, cell_ids)
        assert np.array_equal(grid.cell_starts, cell_starts)
        assert grid.cell_starts.dtype == cell_starts.dtype
        # the box masses come from the same ids without the grid's sort;
        # dim 1 bins by id over a dense lattice, dims 2 and 3 by cell rank
        masses = _box_masses(cloud, cell)
        ref = np.add.reduceat(uniform_weights(cloud)[grid.order], cell_starts)
        assert masses.shape == ref.shape
        assert np.allclose(masses, ref, rtol=1e-12, atol=0)

    def test_single_point(self):
        grid = _GridIndex(np.array([[0.3, -0.2]]), 0.1)
        assert grid.cell_starts.tolist() == [0] and grid.occupied == 1


class TestCoarseSpectrum:
    def test_weighted_cantor_peak(self):
        cloud = cantor_cloud(500_000, 51, p=0.75)
        spec = coarse_spectrum(cloud, r=3.0**-12, delta=0.1)
        assert spec.occupied >= 100
        assert spec.peak_alpha == pytest.approx(SKEW_ALPHA0, abs=0.05)
        assert spec.peak_f == pytest.approx(SKEW_S0, abs=0.05)

    def test_uniform_cantor_flat_spectrum(self):
        cloud = cantor_cloud(300_000, 53)
        spec = coarse_spectrum(cloud, r=3.0**-10, delta=0.1)
        assert spec.peak_alpha == pytest.approx(CANTOR_DIM, abs=0.05)
        assert spec.peak_f == pytest.approx(CANTOR_DIM, abs=0.05)

    def test_too_few_boxes(self):
        cloud = uniform_cloud(5000, 1, 3)
        with pytest.raises(EstimationError):
            coarse_spectrum(cloud, r=0.3, delta=0.1)

    def test_bad_scale_rejected(self):
        cloud = uniform_cloud(5000, 1, 3)
        with pytest.raises(PreconditionError):
            coarse_spectrum(cloud, r=1.5)
        with pytest.raises(PreconditionError):
            coarse_spectrum(cloud, r=0.1, delta=0.0)

    def test_window_counts_match_brute_force(self):
        cloud = uniform_cloud(20_000, 1, 9)
        r = 2.0**-9
        spec = coarse_spectrum(cloud, r=r, delta=0.07)
        grid = _GridIndex(cloud.points, r)
        masses = np.add.reduceat(uniform_weights(cloud)[grid.order], grid.cell_starts)
        masses = masses[masses > 0]
        expo = np.log(masses) / math.log(r)
        for a, f in zip(spec.alpha, spec.f):
            n_in = int(np.sum((expo >= a - 0.07) & (expo <= a + 0.07)))
            assert f == pytest.approx(math.log(n_in) / math.log(1 / r), abs=1e-12)


class TestRelativeDimension:
    def test_symbolic_bound_value(self):
        mu = BernoulliMeasure([0.45, 0.55])
        nu = BernoulliMeasure([0.5, 0.5])
        kl = 0.45 * math.log(0.9) + 0.55 * math.log(1.1)
        assert relative_dimension_bound(mu, nu, 1 / 3) == pytest.approx(
            kl / math.log(3), abs=1e-14
        )
        with pytest.raises(PreconditionError):
            relative_dimension_bound(mu, nu, 1.0)

