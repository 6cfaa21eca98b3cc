import math
import warnings

import numpy as np
import pytest

from maxdep.distortions import power
from maxdep.generators import (
    builtin_generator,
    generator_from_f,
    polynomial_growth_trajectory,
    rv_index_estimate,
    scale_generator,
)
from maxdep.samplers import ArchimaxLogistic, ArchimedeanFrailty

BUILTINS = [
    ("independence", None, 1.0, 1.0),
    ("amh", 0.5, 1.0, 2.0),
    ("clayton", 2.0, 1.0, 0.5),
    ("frank", 2.0, 1.0, math.expm1(2.0) / 2.0),
    ("gumbel", 2.0, 0.5, math.inf),
    ("joe", 2.0, 0.5, math.inf),
    ("ballerini", None, 1.0, math.inf),
]
IDS = [f"{fam}({th})" for fam, th, _, _ in BUILTINS]


@pytest.fixture(params=BUILTINS, ids=IDS)
def builtin(request):
    fam, th, rho, neg0 = request.param
    return builtin_generator(fam, th), rho, neg0


def test_table_values():
    cl = builtin_generator("clayton", 2.0)
    assert cl.psi(1.0) == pytest.approx(2.0**-0.5, rel=1e-15)
    assert cl.neg_psi_prime_0 == 0.5
    assert cl.rho == 1.0
    gu1 = builtin_generator("gumbel", 1.0)
    ts = np.linspace(0.0, 5.0, 20)
    assert np.max(np.abs(gu1.psi(ts) - np.exp(-ts))) < 1e-15
    ball = builtin_generator("ballerini")
    assert ball.psi(1.0) == pytest.approx(0.25, rel=1e-14)


def test_parameter_ranges():
    for fam, bad in [("amh", 1.5), ("amh", 0.0), ("clayton", -1.0), ("frank", 0.0), ("gumbel", 0.5), ("joe", 1.0)]:
        with pytest.raises(ValueError):
            builtin_generator(fam, bad)
    with pytest.raises(ValueError):
        builtin_generator("nonexistent", 1.0)
    # a bool is no parameter: True once built clayton(1.0)
    for fam in ("clayton", "amh", "gumbel"):
        with pytest.raises(ValueError, match="theta must be a real number"):
            builtin_generator(fam, True)
    # +-inf and NaN are no parameter values: clayton, frank, gumbel and joe
    # once accepted theta = inf (gumbel's psi(0) was e^-1), and the power
    # distortion and the archimax sampler took an infinite parameter too
    for fam in ("amh", "clayton", "frank", "gumbel", "joe"):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="theta must be finite"):
                builtin_generator(fam, bad)
    with pytest.raises(ValueError, match="power exponent must be finite"):
        power(math.inf)
    with pytest.raises(ValueError, match="theta_stdf must be finite"):
        ArchimaxLogistic("clayton", 2.0, math.inf)
    with pytest.raises(ValueError, match="scale factor must be finite"):
        scale_generator(builtin_generator("clayton", 2.0), math.inf)


def test_family_names_are_read_as_lookup_reads_them():
    # '_' reads as '-', as in model, margin and frailty names; the old rule
    # stripped it, so clay_ton built a Clayton generator whose frailty model failed
    for build in (builtin_generator, ArchimedeanFrailty):
        with pytest.raises(ValueError, match="clay_ton"):
            build("clay_ton", 2.0)
    assert builtin_generator("Clayton", 2.0).tag == "clayton(2.0)"
    assert ArchimedeanFrailty("Clayton", 2.0).generator.tag == "clayton(2.0)"


def _every_construction():
    """Every built-in generator, one scaled and one built from its hazard f."""
    gens = [builtin_generator(fam, th) for fam, th, _, _ in BUILTINS]
    gens.append(scale_generator(builtin_generator("clayton", 2.0), 3.0))
    gens.append(generator_from_f(lambda t: np.sqrt(t), lambda t: 0.5 / np.sqrt(t), rho=0.5))
    return gens


@pytest.mark.parametrize("g", _every_construction(), ids=lambda g: g.tag)
def test_one_shell_checks_the_argument_and_returns_a_float(g):
    # psi, psi_prime and 1 - psi take t in [0, inf]: a negative t or NaN once
    # came back as a number (clayton psi(-0.5) = 1.414, frank psi'(-0.5) > 0)
    for fn in (g.psi, g.psi_prime, g.one_minus_psi):
        for bad in (-0.5, -math.inf, math.nan, np.array([0.5, math.nan])):
            with pytest.raises(ValueError, match=r"\[0, inf\]"):
                fn(bad)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # psi_prime(0) may divide by zero
            for ok in (0.0, math.inf):
                fn(ok)
        # a scalar gives a float, whatever its type; psi_inv once gave a 0-d
        # array, an np.float64 or a float depending on the family
        for t in (0.5, np.array(0.5)):
            assert type(fn(t)) is float
    for u in (0.5, np.array(0.5)):
        assert type(g.psi_inv(u)) is float


def test_psi_basic_shape(builtin):
    g, _, _ = builtin
    assert float(g.psi(0.0)) == pytest.approx(1.0, abs=1e-15)
    ts = np.logspace(-3, 2, 50)
    vals = np.asarray(g.psi(ts), dtype=float)
    assert np.all(np.diff(vals) < 0)
    assert float(g.psi(1e8)) < 1e-3


def test_inverse_roundtrip(builtin):
    g, _, _ = builtin
    us = np.array([1e-6, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999, 1.0 - 1e-6])
    back = np.asarray(g.psi(np.asarray(g.psi_inv(us), dtype=float)), dtype=float)
    assert np.max(np.abs(back - us)) < 1e-10


def test_inverse_of_root(builtin):
    # psi_inv(u, r) is the inverse at u^(1/r), and r = 1 is the plain inverse
    g, _, _ = builtin
    us = np.array([1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999])
    assert np.array_equal(g.psi_inv(us, 1.0), g.psi_inv(us))
    for r in (0.25, 3.0, 1e6):
        want = np.asarray(g.psi_inv(us ** (1.0 / r)), dtype=float)
        assert np.asarray(g.psi_inv(us, r), dtype=float) == pytest.approx(want, rel=1e-9), r


def test_inverse_rejects_levels_outside_the_unit_interval(builtin):
    g, _, _ = builtin
    for bad in (math.nan, -0.1, 1.5, [0.5, math.nan]):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            g.psi_inv(bad)


@pytest.mark.parametrize("g", _every_construction(), ids=lambda g: g.tag)
def test_inverse_rejects_a_rate_that_is_not_positive(g):
    # psi_inv(u, r) once checked u only: clayton's psi_inv(0.5, -1.0) gave
    # -0.75, r = 0 divided by zero or gave inf, and r = NaN gave NaN or 0.0
    for bad in (-1.0, 0.0, -0.0, math.nan, -math.inf, np.array([1.0, -1.0]), np.array([2.0, math.nan])):
        with pytest.raises(ValueError, match="rate must be positive"):
            g.psi_inv(0.5, bad)
    # r = inf is the limit u^(1/r) = 1, whose inverse is 0
    assert g.psi_inv(0.5, math.inf) == 0.0
    assert g.psi_inv(np.array([0.5, 0.2]), np.array([1.0, math.inf]))[1] == 0.0


@pytest.mark.parametrize("g", _every_construction(), ids=lambda g: g.tag)
def test_inverse_ends_are_inf_and_plus_zero_at_every_rate(g):
    # at r = inf, u = 0 once formed s = inf/inf, which warned and gave 0.0
    # (clayton) or 0.0511 (frank); psi_inv(1) was -0.0 in five families
    rates = (1e-3, 0.5, 1.0, 7.5, math.inf)
    for r in rates:
        assert g.psi_inv(0.0, r) == math.inf
        at1 = g.psi_inv(1.0, r)
        assert type(at1) is float and _bits(at1) == _bits(0.0), r
    # in an array the ends are fixed the same way, and the interior keeps the
    # bits it has without them, at a scalar rate and at one rate per element
    inner = np.array([5e-324, 1e-300, 0.3, 0.5, 1.0 - 2.0**-53])
    u = np.concatenate([[0.0], inner, [1.0]])
    for r in (*rates, np.linspace(0.5, 3.0, u.size)):
        got = g.psi_inv(u, r)
        assert got[0] == math.inf and _bits(got[-1]) == _bits(0.0)
        inner_r = r if np.ndim(r) == 0 else r[1:-1]
        assert np.array_equal(_bits(got[1:-1]), _bits(g.psi_inv(inner, inner_r)))


def test_inverse_rate_as_a_list_gives_an_array():
    # elementwise reads only numpy arrays as non-scalars, so psi_inv turns r
    # into one first: a list of rates is an array call
    g = builtin_generator("clayton", 2.0)
    got = g.psi_inv(0.5, [1.0, 2.0])
    assert isinstance(got, np.ndarray) and got.shape == (2,)
    assert np.array_equal(_bits(got), _bits([g.psi_inv(0.5, 1.0), g.psi_inv(0.5, 2.0)]))
    assert g.psi_inv([0.5], [[1.0], [2.0]]).shape == (2, 1)
    for r in (2.0, np.float64(2.0), np.array(2.0), 2):
        assert type(g.psi_inv(0.5, r)) is float


def test_inverse_at_a_tiny_rate_is_huge_or_inf_without_a_warning(builtin):
    # s = -log(0.5)/1e-300 = 6.93e299; gumbel's s^theta once warned on its overflow
    g, _, _ = builtin
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for got in (g.psi_inv(0.5, 1e-300), *g.psi_inv(np.array([0.5, 1e-10]), 1e-300)):
            assert got >= 6.9e299


def test_gumbel_and_joe_psi_prime_at_zero_is_minus_inf_without_a_warning():
    # t^(1/theta - 1) and (1 - e^-t)^(1/theta - 1) divide by zero at t = 0;
    # psi_prime once warned there, so that a warnings-as-errors run raised
    for fam in ("gumbel", "joe"):
        g = builtin_generator(fam, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert g.psi_prime(0.0) == -math.inf
            got = g.psi_prime(np.array([0.0, 1.0]))
        assert got[0] == -math.inf and got[1] == g.psi_prime(1.0) < 0.0


def test_amh_one_minus_psi_is_one_in_the_far_tail():
    # expm1(t)/(expm1(t) + 1 - theta) was inf/inf, NaN with two warnings, from t = 710
    g = builtin_generator("amh", 0.6)
    ts = [700.0, 709.0, 710.0, 1000.0, 1e300, math.inf]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [g.one_minus_psi(t) for t in ts] == [1.0] * len(ts)
        assert np.array_equal(g.one_minus_psi(np.array(ts)), np.ones(len(ts)))
        # below t = 700 the formula is the ratio it was
        t = np.array([1e-300, 1e-8, 0.5, 3.0, 40.0, 699.9])
        assert np.array_equal(g.one_minus_psi(t), np.expm1(t) / (np.expm1(t) + 1.0 - 0.6))

def test_psi_prime_matches_finite_differences(builtin):
    g, _, _ = builtin
    for t in np.logspace(-3, math.log10(50.0), 40):
        h = 1e-5 * t
        fd = (float(g.psi(t + h)) - float(g.psi(t - h))) / (2.0 * h)
        assert float(g.psi_prime(t)) == pytest.approx(fd, rel=1e-6)


def test_one_minus_psi_accuracy(builtin):
    # tiny-argument relative accuracy, cross-checked against higher precision
    # via the mpmath-free route: 1 - psi on moderately small s where the naive
    # subtraction is still exact enough to compare
    g, _, _ = builtin
    for s in (1e-4, 1e-6):
        naive = 1.0 - float(g.psi(s))
        assert float(g.one_minus_psi(s)) == pytest.approx(naive, rel=1e-9)
    # and it keeps full scale far below the naive breakdown
    assert float(g.one_minus_psi(1e-280)) > 0.0
    if g.tag == "ballerini":
        # below 1/DBL_MAX the reciprocal 1/t overflows; 1 - psi(s) is then
        # s*(1 - log s) to well beyond rel 1e-6, psi rounds to 1, psi' is finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in (1e-310, 5e-324):
                assert float(g.one_minus_psi(s)) == pytest.approx(s * (1.0 - math.log(s)), rel=1e-6)
                assert float(g.psi(s)) == 1.0
                assert math.isfinite(float(g.psi_prime(s)))


def test_rv_index_estimate_matches_table(builtin):
    g, rho, _ = builtin
    est = rv_index_estimate(g, 2.0, 1e8)
    if g.tag == "ballerini":
        # the slowly varying factor grows like log(t); the estimator then
        # carries a bias of order 1/log(t) and approaches rho = 1 only
        # logarithmically (about 0.95 at t = 1e8)
        assert 0.9 < est < 1.0
        closer = rv_index_estimate(g, 2.0, 1e12)
        assert closer > est
    else:
        assert est == pytest.approx(rho, abs=5e-3)


def test_rv_index_estimate_errors():
    g = builtin_generator("clayton", 1.0)
    with pytest.raises(ValueError):
        rv_index_estimate(g, 1.0, 1e8)
    with pytest.raises(ValueError):
        rv_index_estimate(g, 2.0, 100.0)


def test_neg_psi_prime_zero_metadata(builtin):
    g, _, neg0 = builtin
    if math.isinf(neg0):
        assert math.isinf(g.neg_psi_prime_0)
        # -psi' diverges along t -> 0 (slowly for the log-type generator)
        probes = [-float(g.psi_prime(t)) for t in (1e-2, 1e-5, 1e-8, 1e-12)]
        assert all(a < b for a, b in zip(probes, probes[1:]))
        assert probes[-1] > 10.0
    else:
        assert -float(g.psi_prime(1e-8)) == pytest.approx(neg0, rel=1e-4)


def test_polynomial_growth_trajectories():
    cl = builtin_generator("clayton", 1.0)
    ts = np.array([1e2, 1e4, 1e6])
    traj = polynomial_growth_trajectory(cl, 1.0, ts)
    assert np.max(np.abs(traj - ts / (ts + 1.0))) < 1e-12
    gu = builtin_generator("gumbel", 2.0)
    traj = polynomial_growth_trajectory(gu, 0.5, np.array([1e8, 1e10]))
    assert np.max(np.abs(traj - 1.0)) < 1e-4
    ball = builtin_generator("ballerini")
    traj = polynomial_growth_trajectory(ball, 1.0, np.array([1e3, 1e6]))
    assert traj[1] > traj[0]
    assert traj[1] > 10.0


def test_generator_from_f():
    ind = generator_from_f(lambda t: t, lambda t: np.ones_like(np.asarray(t, dtype=float)), rho=1.0)
    assert float(ind.psi(2.0)) == pytest.approx(math.exp(-2.0), rel=1e-14)
    assert ind.neg_psi_prime_0 == 1.0

    ball = generator_from_f(
        lambda t: np.log1p(t) + np.asarray(t, dtype=float) * np.log1p(1.0 / np.asarray(t, dtype=float)),
        lambda t: np.log1p(1.0 / np.asarray(t, dtype=float)),
    )
    assert float(ball.psi(1.0)) == pytest.approx(0.25, rel=1e-12)

    gu2 = generator_from_f(lambda t: np.sqrt(t), lambda t: 0.5 / np.sqrt(t), rho=0.5)
    assert float(gu2.psi(4.0)) == pytest.approx(math.exp(-2.0), rel=1e-12)
    # inverse comes from the bracketed root find
    assert float(gu2.psi(float(gu2.psi_inv(0.3)))) == pytest.approx(0.3, abs=1e-10)


def test_generator_from_f_rejects_bad_input():
    with pytest.raises(ValueError):
        generator_from_f(lambda t: -np.asarray(t, dtype=float), lambda t: -np.ones_like(np.asarray(t, dtype=float)))
    with pytest.raises(ValueError):
        # increasing f' is not completely monotone
        generator_from_f(lambda t: np.asarray(t, dtype=float) ** 2, lambda t: 2.0 * np.asarray(t, dtype=float))
    # a NaN fails every comparison: a hazard NaN above t = 100 once built a
    # generator whose psi(200) was nan
    f_prime = lambda t: 1.0 / (1.0 + t) + 0.5 / np.sqrt(t)
    with pytest.raises(ValueError, match="f and f' must be finite"):
        generator_from_f(lambda t: np.where(t > 100.0, math.nan, np.log1p(t) + np.sqrt(t)), f_prime, rho=0.5)
    with pytest.raises(ValueError, match="f and f' must be finite"):
        generator_from_f(lambda t: np.log1p(t) + np.sqrt(t), lambda t: np.where(t > 100.0, math.inf, f_prime(t)))
    # -psi'(0) is probed at t = 1e-10, below the grid: an f' NaN there once
    # built a generator whose neg_psi_prime_0 was nan
    with pytest.raises(ValueError, match="f' must be positive and nonincreasing"):
        generator_from_f(lambda t: np.log1p(t) + np.sqrt(t), lambda t: np.where(t < 1e-5, math.nan, f_prime(t)))
    # a given rho is a finite real > 0: inf, nan and True were once stored as given
    for bad in (math.inf, math.nan, True, 0.0):
        with pytest.raises(ValueError, match="rho must be"):
            generator_from_f(np.sqrt, lambda t: 0.5 / np.sqrt(t), rho=bad)


# 0, subnormals, the whole range and inf
HAZARD_T = np.array([0.0, 5e-324, 1e-310, 1e-300, 1e-100, 1e-10, 0.3, 1.0, 2.5, 30.0, 745.0, 1e10, 1e300, math.inf])


def _hazard_triple(g):
    with np.errstate(divide="ignore"):
        return [fn(HAZARD_T) for fn in (g.psi, g.psi_prime, g.one_minus_psi)]


def _assert_bits(got, expected):
    for a, b in zip(got, expected):
        assert a.tobytes() == np.asarray(b, dtype=float).tobytes()


@pytest.mark.parametrize("theta", [1.0, 2.0, 7.5])
def test_hazard_generators_keep_their_closed_form_bits(theta):
    # gumbel(theta) has the bits of its closed forms in f(t) = t^(1/theta), and
    # so does generator_from_f of that f wherever its f(1e-10) < 1e-3 check
    # lets f in (not at theta = 7.5, where f(1e-10) = 0.046)
    a = 1.0 / theta
    t = HAZARD_T
    with np.errstate(divide="ignore"):
        closed = [np.exp(-t**a), -a * t ** (a - 1.0) * np.exp(-t**a), -np.expm1(-t**a)]
    _assert_bits(_hazard_triple(builtin_generator("gumbel", theta)), closed)
    if theta < 7.5:
        _assert_bits(_hazard_triple(generator_from_f(lambda t: t**a, lambda t: a * t ** (a - 1.0))), closed)
    if theta == 1.0:
        closed = [np.exp(-t), -np.exp(-t), -np.expm1(-t)]
        _assert_bits(_hazard_triple(builtin_generator("independence")), closed)
        _assert_bits(_hazard_triple(generator_from_f(lambda t: t, np.ones_like, rho=1.0)), closed)


@pytest.mark.parametrize("theta", [0.5, 3.0, 6.9])
def test_frank_psi_is_its_one_formula_where_nothing_cancels(theta):
    # below theta = 6.9 no element takes the cancellation branch
    expected = -np.log1p(math.expm1(-theta) * np.exp(-HAZARD_T)) / theta
    assert builtin_generator("frank", theta).psi(HAZARD_T).tobytes() == expected.tobytes()


def test_scale_generator_values():
    cl = builtin_generator("clayton", 1.0)
    assert float(scale_generator(cl, 1.0).psi(0.7)) == float(cl.psi(0.7))
    assert float(scale_generator(cl, 2.0).psi(1.0)) == pytest.approx(1.0 / 3.0, rel=1e-15)
    gu = builtin_generator("gumbel", 2.0)
    assert float(scale_generator(gu, 4.0).psi(1.0)) == pytest.approx(math.exp(-2.0), rel=1e-14)
    with pytest.raises(ValueError):
        scale_generator(cl, 0.0)


def test_scale_generator_preserves_diagonal(builtin):
    g, _, _ = builtin
    us = np.array([0.05, 0.3, 0.6, 0.9])
    for c in (0.5, 2.0):
        gc = scale_generator(g, c)
        for n in (2, 7, 50):
            base = np.asarray(g.psi(n * np.asarray(g.psi_inv(us), dtype=float)), dtype=float)
            scaled = np.asarray(gc.psi(n * np.asarray(gc.psi_inv(us), dtype=float)), dtype=float)
            assert np.max(np.abs(base - scaled)) < 1e-12


def _bits(v):
    return np.asarray(v, dtype=float).view(np.uint64)


@pytest.mark.parametrize("fam, th", [("gumbel", 2.0), ("clayton", 2.0), ("frank", 3.0), ("joe", 2.0),
                                     ("ballerini", None)])
def test_scaled_inverse_is_the_inner_inverse_over_c(fam, th):
    # the scaled inverse once checked u and formed -log(u)/r, dropped it, and
    # the inner psi_inv did both again
    g = builtin_generator(fam, th)
    u = np.concatenate([[0.0, 5e-324, 1e-300], np.linspace(0.0, 1.0, 101), [1.0 - 2.0**-53, 1.0]])
    for c in (0.5, 2.0, 3):
        gc = scale_generator(g, c)
        for r in (1.0, 2.5):
            assert np.array_equal(_bits(gc.psi_inv(u, r)), _bits(g.psi_inv(u, r) / c))
            for v in u:
                got = gc.psi_inv(float(v), r)
                assert type(got) is float and _bits(got) == _bits(g.psi_inv(float(v), r) / c), v
        for bad in (math.nan, -0.1, 1.5, [0.5, math.nan]):
            with pytest.raises(ValueError, match=r"^generator inverse defined on \[0, 1\]$"):
                gc.psi_inv(bad)
