"""Grid transform tests.

The closed-form Gaussian transform (fourier_state) is the oracle for the
discrete path: with a box wide enough that both the field and its spectrum
decay below machine precision before the edge, the phased DFT should match
the continuum transform pointwise.  The remaining tests pin the discrete
invariants that hold exactly (Parseval, roundtrip, unimodular evolution)
and the failure modes (aliasing on input and on output).
"""

import gc
import itertools
import math
import weakref
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from smoothing_lab import spectral
from smoothing_lab import (
    AliasingError,
    GridField,
    InvalidParameterError,
    SpectrumField,
    dispersive_approx,
    evolve_analytic,
    evolve_spectral,
    forward_transform,
    fourier_state,
    grid_l2_sq,
    hs_norm_sq,
    inverse_transform,
    l2_norm_sq,
    packet,
    packet_sum,
    rel_l2_diff,
    sample_datum,
    sample_state,
)
from smoothing_lab.model import _outer_sum
from smoothing_lab.spectral import boundary_mass_fraction

F_1D = packet_sum([
    packet(1.0, 1.0, [0.3], [0.25]),
    packet(0.4 - 0.7j, 2.5, [-0.6], [-0.4]),
])

ODD_1D = packet_sum([
    packet(1.0, 1.0, [0.8], [0.0]),
    packet(-1.0, 1.0, [-0.8], [0.0]),
])


def conj_field(g: GridField) -> GridField:
    return GridField(g.n, g.L, g.N, np.conj(g.samples), t=g.t)


def test_forward_transform_matches_closed_form():
    g = sample_datum(F_1D, L=16.0, N=512)
    sf = forward_transform(g)
    ghat = fourier_state(F_1D)
    exact = ghat.values(sf.axis()[:, None])
    assert np.max(np.abs(sf.values - exact)) < 1e-13


def test_forward_transform_matches_closed_form_2d():
    f = packet_sum([packet(1.0, 1.0, [0.3, -0.2], [0.25, 0.1])])
    g = sample_datum(f, L=12.0, N=128)
    sf = forward_transform(g)
    ax = sf.axis()
    xi = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1)
    exact = fourier_state(f).values(xi)
    assert np.max(np.abs(sf.values - exact)) < 1e-13


def test_parseval_exact_on_grid():
    g = sample_datum(F_1D, L=16.0, N=512)
    sf = forward_transform(g)
    spec_mass = float((np.abs(sf.values) ** 2).sum() * sf.dxi**sf.n)
    assert spec_mass == pytest.approx(grid_l2_sq(g), rel=1e-13)


def test_roundtrip_is_identity():
    g = sample_datum(F_1D, L=16.0, N=512, t=0.3)
    back = inverse_transform(forward_transform(g))
    assert rel_l2_diff(g, back) < 1e-13
    assert back.t == g.t


def test_spectral_evolution_group_law():
    g = sample_datum(F_1D, L=48.0, N=2048)
    one = evolve_spectral(evolve_spectral(g, 0.4), 0.35)
    two = evolve_spectral(g, 0.75)
    assert rel_l2_diff(one, two) < 1e-12
    assert one.t == pytest.approx(0.75, abs=0.0)


def test_spectral_evolution_conserves_mass():
    g = sample_datum(F_1D, L=48.0, N=2048)
    out = evolve_spectral(g, 0.6)
    assert grid_l2_sq(out) == pytest.approx(grid_l2_sq(g), rel=1e-13)


def test_spectral_time_reversal():
    # conjugating the datum conjugates the backward flow
    g = sample_datum(F_1D, L=48.0, N=2048)
    fwd = evolve_spectral(conj_field(g), 0.5)
    bwd = evolve_spectral(g, -0.5)
    assert rel_l2_diff(fwd, conj_field(bwd)) < 1e-12


def test_grid_evolution_cross_checks_analytic():
    # one fixed box; the wide sweep lives in the acceptance suite
    f = F_1D
    g0 = sample_datum(f, L=80.0, N=8192)
    moved = evolve_spectral(g0, 0.7)
    exact = sample_state(evolve_analytic(f, 0.7), L=80.0, N=8192)
    assert rel_l2_diff(moved, exact) < 1e-8


def test_forward_transform_rejects_wrapped_input():
    wide = packet_sum([packet(1.0, 0.01, [0.0], [0.0])])
    g = sample_datum(wide, L=8.0, N=256)
    with pytest.raises(AliasingError) as exc:
        forward_transform(g)
    assert exc.value.fraction > exc.value.threshold


def test_spectral_evolution_rejects_spread_output():
    narrow = packet_sum([packet(1.0, 50.0, [0.0], [0.0])])
    g = sample_datum(narrow, L=8.0, N=512)
    with pytest.raises(AliasingError):
        evolve_spectral(g, 5.0)


def test_hs_norm_packet_vs_grid():
    # odd datum: fhat vanishes at 0, so the |xi| kink carries no weight
    val_packet = hs_norm_sq(ODD_1D, 0.5)
    sf = forward_transform(sample_datum(ODD_1D, L=80.0, N=8192))
    val_grid = hs_norm_sq(sf, 0.5)
    assert val_grid == pytest.approx(val_packet, rel=1e-6)


def test_hs_norm_zero_order_is_mass():
    assert hs_norm_sq(F_1D, 0.0) == pytest.approx(l2_norm_sq(F_1D), rel=1e-10)
    sf = forward_transform(sample_datum(F_1D, L=16.0, N=512))
    g = sample_datum(F_1D, L=16.0, N=512)
    assert hs_norm_sq(sf, 0.0) == pytest.approx(grid_l2_sq(g), rel=1e-13)


def test_half_derivative_norm_of_unit_gaussian():
    # int |xi| exp(-2 pi^2 xi^2 / a) (pi/a)^(1/2) dxi = 1/(2 pi) for every a
    for a in (0.5, 1.0, 3.0):
        f = packet_sum([packet(1.0, a, [0.0])])
        assert hs_norm_sq(f, 0.5) == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-8)


def test_hs_norm_rejects_nonintegrable_order():
    with pytest.raises(InvalidParameterError):
        hs_norm_sq(F_1D, -0.5)
    sf = forward_transform(sample_datum(F_1D, L=16.0, N=512))
    with pytest.raises(InvalidParameterError):
        hs_norm_sq(sf, -0.5)


@pytest.mark.parametrize("s", [np.nan, np.inf])
def test_hs_norm_rejects_non_finite_order(s):
    # both branches share the one check, before any quadrature or sum
    sf = forward_transform(sample_datum(F_1D, L=16.0, N=512))
    for f in (F_1D, sf):
        with pytest.raises(InvalidParameterError, match="finite"):
            hs_norm_sq(f, s)


def test_hs_norm_rejects_other_types():
    with pytest.raises(InvalidParameterError):
        hs_norm_sq(np.zeros(4), 0.5)


def test_spectrum_field_shape_guard():
    with pytest.raises(InvalidParameterError):
        SpectrumField(2, 8.0, 64, np.zeros(64, dtype=complex))


# (n, L, N, t): each breaks one rule of the layout both field types share
BAD_LAYOUTS = {
    "n0": (0, 4.0, 8, 0.0), "n5": (5, 4.0, 8, 0.0),
    "L0": (1, 0.0, 8, 0.0), "Lneg": (1, -2.0, 8, 0.0), "Lnan": (1, np.nan, 8, 0.0),
    "Linf": (1, np.inf, 8, 0.0), "N0": (1, 4.0, 0, 0.0), "Nodd": (1, 2.0, 7, 0.0),
    "tnan": (1, 4.0, 8, np.nan), "tinf": (1, 4.0, 8, np.inf),
    "tneginf": (1, 4.0, 8, -np.inf),
}


@pytest.mark.parametrize("n,L,N,t", BAD_LAYOUTS.values(), ids=BAD_LAYOUTS)
@pytest.mark.parametrize("make", [GridField, SpectrumField],
                         ids=["grid", "spectrum"])
def test_field_rejects_bad_layout(make, n, L, N, t):
    # the array matches (N,)*n, so only the layout rule can reject it
    with pytest.raises(InvalidParameterError):
        make(n, L, N, np.ones((N,) * n, dtype=complex), t=t)


def moving_packets(n, m):
    """m off-centre moving packets in dimension n (m = 0 is the zero datum)."""
    rng = np.random.default_rng(10 * n + m)
    return packet_sum([
        packet(complex(*rng.uniform(-1.0, 1.0, 2)), rng.uniform(0.6, 1.5),
               rng.uniform(-1.0, 1.0, n), rng.uniform(-0.4, 0.4, n))
        for _ in range(m)
    ], n=n)


STATES = {
    "t0": lambda f: evolve_analytic(f, 0.0),
    "t0.7": lambda f: evolve_analytic(f, 0.7),
    "dispersive": lambda f: dispersive_approx(f, 0.7),
}


@pytest.mark.parametrize("kind", sorted(STATES))
@pytest.mark.parametrize("m", [0, 1, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_sample_state_matches_pointwise_values(n, m, kind):
    # the axis-by-axis product against the direct sum over packets
    st = STATES[kind](moving_packets(n, m))
    g = sample_state(st, L=8.0, N=(256, 64, 24)[n - 1])
    ax = g.axis()
    pts = np.stack(np.meshgrid(*([ax] * n), indexing="ij"), axis=-1)
    direct = st.values(pts)
    assert np.max(np.abs(g.samples - direct)) <= 1e-13 * np.max(np.abs(direct))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_grid_operations_leave_inputs_untouched(n):
    f = packet_sum([packet(1.0, 0.5, [0.2] * n, [0.1] * n),
                    packet(0.5j, 0.7, [-0.3] * n, [-0.1] * n)])
    g = sample_datum(f, L=12.0, N=64)
    sf = forward_transform(sample_datum(f, L=12.0, N=64))
    cases = [
        (g.samples, lambda: forward_transform(g).values),
        (sf.values, lambda: inverse_transform(sf).samples),
        (g.samples, lambda: evolve_spectral(g, 0.3).samples),
    ]
    for source, run in cases:
        before = source.tobytes()
        out = run()
        assert source.tobytes() == before
        assert not out.flags.writeable
        assert not np.shares_memory(out, source)


@pytest.mark.parametrize("make,attr", [(GridField, "samples"),
                                       (SpectrumField, "values")],
                         ids=["grid", "spectrum"])
def test_field_neither_freezes_nor_aliases_the_callers_array(make, attr):
    base = np.zeros(8, dtype=complex)
    view = base[:]
    view.setflags(write=False)  # read-only itself, but its base is not
    direct = make(1, 4.0, 8, base)
    viewed = make(1, 4.0, 8, view)
    assert base.flags.writeable
    base[3] = 5.0
    for field in (direct, viewed):
        assert getattr(field, attr)[3] == 0.0
        assert not getattr(field, attr).flags.writeable


@pytest.mark.parametrize("n", [1, 2, 3])
def test_grid_results_enter_fields_uncopied(n):
    # the grid functions freeze what they allocate, so wrapping a result
    # again keeps the very same array
    f = packet_sum([packet(1.0, 0.5, [0.2] * n, [0.1] * n)])
    g = sample_datum(f, L=12.0, N=64)
    sf = forward_transform(g)
    for out in (g, inverse_transform(sf), evolve_spectral(g, 0.3)):
        assert GridField(n, 12.0, 64, out.samples).samples is out.samples
    assert SpectrumField(n, 12.0, 64, sf.values).values is sf.values


def workload_3d_datum():
    # one packet of the kind the grid benchmark draws in n = 3
    return packet_sum([packet(0.9 - 0.4j, 0.8, [0.4, -0.3, 0.2], [0.15, -0.1, 0.2])])


def test_roundtrip_and_parseval_3d():
    g = sample_datum(workload_3d_datum(), L=18.0, N=128)
    sf = forward_transform(g)
    spec_mass = float((np.abs(sf.values) ** 2).sum() * sf.dxi**3)
    assert spec_mass == pytest.approx(grid_l2_sq(g), rel=1e-12)
    assert rel_l2_diff(inverse_transform(sf), g) < 1e-12


@pytest.mark.parametrize("t", [0.1, 0.5])
def test_grid_evolution_cross_checks_analytic_3d(t):
    f = workload_3d_datum()
    moved = evolve_spectral(sample_datum(f, L=18.0, N=128), t)
    exact = sample_datum(f, L=18.0, N=128, t=t)
    assert rel_l2_diff(moved, exact) <= 1e-8


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_spectral_evolution_rejects_non_finite_time(t):
    g = sample_datum(F_1D, L=16.0, N=512)
    with pytest.raises(InvalidParameterError, match="t must be finite"):
        evolve_spectral(g, t)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_grid_fails_closed(bad):
    # one bad sample of a general field, one bad factor of a factored one
    good = sample_datum(two_packets(2), L=12.0, N=64)
    samples = np.array(materialised(good))
    samples[7, 9] = bad
    B, factors = good._factors
    factors = np.array(factors)
    factors[1, 1, 9] = bad
    for g in (GridField(2, 12.0, 64, samples),
              GridField._from_factors(2, 12.0, 64, B, factors)):
        checks = [boundary_mass_fraction, forward_transform, grid_l2_sq]
        # against itself, and against a field of either kind
        checks += [lambda g, h=h: rel_l2_diff(g, h) for h in (good, general_twin(good))]
        checks += [lambda g: rel_l2_diff(good, g), lambda g: rel_l2_diff(g, g)]
        for check in checks:
            with pytest.raises(InvalidParameterError, match="not finite"):
                check(g)


@pytest.mark.filterwarnings("error")
def test_overflowing_grid_mass_fails_closed():
    # finite samples of 2e152 on 128^2 points: the squares add up past the
    # largest float
    samples = np.full((128, 128), 2e152 + 0j)
    for g in (GridField(2, 4.0, 128, samples),
              GridField._from_factors(2, 4.0, 128, [2e152], np.ones((1, 2, 128)))):
        for check in (boundary_mass_fraction, grid_l2_sq, lambda g: rel_l2_diff(g, g)):
            with pytest.raises(InvalidParameterError, match="not finite"):
                check(g)


def test_boundary_mass_fraction_counts_every_edge_slab():
    # unit mass on one point per region: the centre, an edge point of each
    # axis, and a corner
    samples = np.zeros((16, 16, 16), dtype=complex)
    samples[8, 8, 8] = 1.0
    samples[0, 8, 8] = samples[8, 15, 8] = samples[8, 8, 2] = 1.0
    samples[1, 14, 3] = 1.0
    g = GridField(3, 4.0, 16, samples)
    assert boundary_mass_fraction(g) == pytest.approx(4.0 / 5.0, rel=1e-15)


def test_rel_l2_diff_layout_guard():
    a = sample_datum(F_1D, L=16.0, N=512)
    b = sample_datum(F_1D, L=16.0, N=256)
    with pytest.raises(InvalidParameterError):
        rel_l2_diff(a, b)


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts of the grid path's transform calls: fftn and ifftn of
    general fields, fft and ifft batched over factored fields' factors."""
    calls = Counter()
    real = spectral.fft

    def counted(name):
        def call(*args, **kwargs):
            calls[name] += 1
            return getattr(real, name)(*args, **kwargs)
        return call

    monkeypatch.setattr(spectral, "fft", SimpleNamespace(
        **{name: counted(name) for name in ("fftn", "ifftn", "fft", "ifft")}))
    return calls


def two_packets(n):
    return packet_sum([packet(1.0, 0.5, [0.2] * n, [0.1] * n),
                       packet(0.5j, 0.7, [-0.3] * n, [-0.1] * n)])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_field_is_transformed_once(fft_calls, n):
    # a sampled datum is factored: one batched 1-D transform per call
    g = sample_datum(two_packets(n), L=12.0, N=64)
    for t in (0.1, 0.2, 0.3):
        evolve_spectral(g, t)
    assert fft_calls == {"fft": 1, "ifft": 3}
    # forward_transform serves the same spectrum; a new field transforms
    # anew, its general twin by an n-D transform
    assert forward_transform(g) is forward_transform(g)
    assert fft_calls["fft"] == 1
    evolve_spectral(GridField(g.n, g.L, g.N, g.samples), 0.1)
    assert fft_calls == {"fft": 1, "ifft": 3, "fftn": 1, "ifftn": 1}


def test_spectrum_cache_entry_goes_with_its_field():
    gc.collect()
    before = len(spectral._SPECTRA)
    g = sample_datum(F_1D, L=16.0, N=512)
    evolve_spectral(g, 0.3)
    assert len(spectral._SPECTRA) == before + 1
    field, spectrum = weakref.ref(g), weakref.ref(spectral._SPECTRA[g].values)
    del g
    gc.collect()
    assert field() is None and spectrum() is None
    assert len(spectral._SPECTRA) == before


def test_evolution_checks_only_its_output_for_aliasing():
    # a packet sampled past L/2 on its way out, evolved back to the centre
    f = packet_sum([packet(1.0, 0.5, [0.0], [1.0])])
    g = sample_datum(f, L=24.0, N=1024, t=1.0)
    assert boundary_mass_fraction(g) > 0.5
    with pytest.raises(AliasingError):
        forward_transform(g)
    back = evolve_spectral(g, -1.0)
    assert boundary_mass_fraction(back) < 1e-12
    assert back.t == 0.0
    assert rel_l2_diff(back, sample_datum(f, L=24.0, N=1024)) < 1e-6


@pytest.mark.parametrize("n,N", [(1, 512), (2, 128), (3, 48)])
def test_evolution_matches_direct_numpy_fft(n, N):
    g = sample_datum(two_packets(n), L=12.0, N=N)
    t = 0.3
    symbol = np.exp(-4j * np.pi**2 * np.fft.fftfreq(N, d=g.dx) ** 2 * t)
    multiplier = np.ones((1,) * n)
    for ax in range(n):
        multiplier = multiplier * symbol.reshape((-1,) + (1,) * (n - 1 - ax))
    direct = np.fft.ifftn(np.fft.fftn(g.samples) * multiplier)
    moved = evolve_spectral(g, t)
    assert rel_l2_diff(moved, GridField(n, g.L, N, direct)) <= 1e-14


def fsum_sq(v):
    """The sum of the squares of the float array v, rounded once.

    Squared and summed in x87 extended precision (64-bit mantissa): each
    square carries 5e-20 relative error, and the pairwise sum of millions
    of them stays far below a float's eps, in a fraction of math.fsum's
    time.  Where long double is no wider than a float, math.fsum a slice
    at a time.
    """
    if np.finfo(np.longdouble).eps < 1e-18:
        w = v.astype(np.longdouble).ravel()
        return float(np.square(w, out=w).sum())
    return math.fsum(itertools.chain.from_iterable(
        (c * c).tolist() for c in np.array_split(v.ravel(), max(1, v.size // 2**16))))


def random_field(n, N):
    rng = np.random.default_rng(N)
    shape = (N,) * n
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return GridField(n, 4.0, N, z)


def smooth_field():
    # the spectrum of the benchmark-like 3-D packet: on such smooth values a
    # sum of products outside BLAS (np.einsum) ran 5 eps low
    sf = forward_transform(sample_datum(workload_3d_datum(), L=18.0, N=128))
    return GridField(3, 18.0, 128, sf.values)


@pytest.mark.parametrize("make", [lambda: random_field(3, 128), smooth_field,
                                  lambda: random_field(1, 6)],
                         ids=["random-128^3", "smooth-128^3", "random-6"])
def test_blocked_sums_match_fsum(make):
    # 128^3 fills whole blocks; 2 N = 12 floats is a tail alone
    a = make()
    noise = np.random.default_rng(0).standard_normal(a.samples.shape)
    b = GridField(a.n, a.L, a.N, a.samples * (1.0 + 1e-3 * noise))
    va, vb = a.samples.view(np.float64), b.samples.view(np.float64)
    eps = np.finfo(float).eps
    assert grid_l2_sq(a) == pytest.approx(fsum_sq(va) * a.dx**a.n, rel=4 * eps, abs=0.0)
    exact = math.sqrt(fsum_sq(va - vb) / max(fsum_sq(va), fsum_sq(vb)))
    assert rel_l2_diff(a, b) == pytest.approx(exact, rel=4 * eps, abs=0.0)
    assert rel_l2_diff(a, a) == 0.0


# (n, L, N, times): the grid-oracle benchmark's boxes, then the n = 1 grid
# of the grid-route tests in test_functionals (their n = 2 grid is "n2")
FACTORED_BOXES = {
    "n1": (1, 80.0, 8192, (0.1, 0.7, 2.0)), "n2": (2, 32.0, 512, (0.1, 0.7)),
    "n2w": (2, 84.0, 1024, (2.0,)), "n3": (3, 18.0, 128, (0.1, 0.5)),
    "line": (1, 40.0, 2048, (0.7,)),
}


def box_datum(n):
    """Two interfering packets of the kind the grid benchmark draws."""
    rng = np.random.default_rng(0)
    return packet_sum([packet(complex(*rng.uniform(-1.0, 1.0, 2)), rng.uniform(0.6, 1.0),
                              rng.uniform(-0.5, 0.5, n), rng.uniform(-0.2, 0.2, n))
                       for _ in range(2)], n=n)


def materialised(fld):
    """A factored field's array, built apart: fld itself stays factored."""
    return _outer_sum(*fld._factors)


def general_twin(g):
    """g's samples as a general field, which takes the n-D path."""
    return GridField(g.n, g.L, g.N, materialised(g), t=g.t)


def rel_l2(x, y):
    return np.linalg.norm((x - y).ravel()) / np.linalg.norm(y.ravel())


@pytest.mark.parametrize("box", FACTORED_BOXES)
def test_factored_fields_match_their_general_twins(box):
    n, L, N, times = FACTORED_BOXES[box]
    f = box_datum(n)
    g = sample_datum(f, L, N)
    twin = general_twin(g)
    assert g._factors is not None and twin._factors is None
    sf, sf_twin = forward_transform(g), forward_transform(twin)
    assert sf._factors is not None
    assert rel_l2(materialised(sf), sf_twin.values) <= 1e-14
    back = inverse_transform(sf)
    assert rel_l2(materialised(back), inverse_transform(sf_twin).samples) <= 1e-14
    fields = [g, back]
    for t in times:
        moved = evolve_spectral(g, t)
        fields.append(moved)
        assert moved._factors is not None
        assert rel_l2(materialised(moved), evolve_spectral(twin, t).samples) <= 1e-14
        # the slab sums in grid Gram form against the sums of the samples
        frac = boundary_mass_fraction(moved)
        assert frac == pytest.approx(boundary_mass_fraction(general_twin(moved)),
                                     rel=1e-14, abs=0.0)
        far = rel_l2_diff(moved, g)
        assert far == pytest.approx(rel_l2_diff(general_twin(moved), twin), rel=1e-14)
        assert far > 1e-3  # a difference that does not cancel
    # where the difference cancels to roundoff, the telescoped sum reads
    # what the blocked sum of the materialised samples reads
    pairs = [(back, g)] + [(evolve_spectral(g, t), sample_datum(f, L, N, t)) for t in times]
    for a, b in pairs:
        factored, blocked = rel_l2_diff(a, b), rel_l2_diff(general_twin(a), general_twin(b))
        assert 0.5 * blocked <= factored <= 2.0 * blocked
        assert factored < 1e-14
    # the mass in grid Gram form against the sum of the samples, and no
    # grid operation above built a field's samples
    eps = np.finfo(float).eps
    for fld in fields + [fld for pair in pairs[1:] for fld in pair]:
        exact = fsum_sq(materialised(fld).view(np.float64)) * fld.dx**n
        assert grid_l2_sq(fld) == pytest.approx(exact, rel=4 * eps, abs=0.0)
        forward_transform(fld)
        assert fld._factors is not None and "samples" not in fld.__dict__


@pytest.mark.parametrize("delta", [0.5, 1e-3, 1e-8])
def test_cancelling_packets_keep_their_mass(delta):
    # one packet twice, with amplitudes 1 and -(1 - delta): the samples
    # cancel to delta, where a Gram sum would lose digits as 1/delta^2
    f = packet_sum([packet(a, 0.8, [0.1, -0.2], [0.05, 0.0]) for a in (1.0, delta - 1.0)],
                   n=2)
    g = sample_datum(f, L=16.0, N=256)
    exact = fsum_sq(materialised(g).view(np.float64)) * g.dx**2
    mass = grid_l2_sq(g)
    assert mass == pytest.approx(exact, rel=4 * np.finfo(float).eps, abs=0.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_factored_field_leaving_the_box_raises(n):
    g = sample_datum(packet_sum([packet(1.0, 2.0, [0.0] * n, [0.5] * n)]), L=8.0, N=64)
    for field in (g, general_twin(g)):
        with pytest.raises(AliasingError) as exc:
            evolve_spectral(field, 1.0)
        assert exc.value.fraction > exc.value.threshold
    bad = GridField._from_factors(n, 8.0, 64, [1.0], np.full((1, n, 64), np.inf))
    with pytest.raises(InvalidParameterError, match="not finite"):
        forward_transform(bad)
