
import numpy as np
import pytest

import stackgame as sg
from stackgame.errors import DomainError
from stackgame.noise_model import KINDS, WIDE_SIGMA


@pytest.fixture(scope="module")
def all_models():
    xs = np.linspace(-1.0, 1.0, 2001)
    return [
        sg.uniform(1.0),
        sg.truncated_normal(1.0, 0.5),
        sg.triangular(1.0),
        sg.tabulated(xs, np.maximum(0.0, 1.0 - np.abs(xs))),
    ]


def test_uniform_pdf_cdf():
    m = sg.uniform(2.0)
    np.testing.assert_allclose(m.pdf(np.array([-1.0, 0.0, 1.9])), 0.25)
    assert m.pdf(2.5) == 0.0
    np.testing.assert_allclose(m.cdf(np.array([-2.0, 0.0, 1.0, 2.0])),
                               [0.0, 0.5, 0.75, 1.0])


def test_truncated_normal_mass_renormalized():
    m = sg.truncated_normal(1.0, 0.5)
    assert abs(m.cdf(1.0) - 1.0) < 1e-12
    assert abs(m.cdf(-1.0)) < 1e-12
    # denser than the untruncated gaussian near 0 because of renormalization
    assert m.pdf(0.0) > 1.0 / np.sqrt(2 * np.pi * 0.25)


def test_triangular_second_moment():
    m = sg.triangular(1.0)
    assert abs(m.partial_moments(-1.0)[2] - 1.0 / 6.0) < 1e-10


@pytest.mark.parametrize("delta", [0.5, 1.0, 3.0])
def test_uniform_second_moment(delta):
    assert abs(sg.uniform(delta).partial_moments(-delta)[2] - delta**2 / 3.0) < 1e-10


def test_inv_cdf_roundtrip(all_models, rng):
    qs = rng.uniform(0.001, 0.999, 200)
    for m in all_models:
        xs = m.inv_cdf(qs)
        np.testing.assert_allclose(m.cdf(xs), qs, atol=1e-10, err_msg=m.kind)


def test_inv_cdf_domain():
    with pytest.raises(DomainError):
        sg.uniform(1.0).inv_cdf(1.5)


def test_sampling_matches_cdf(all_models):
    rng = np.random.default_rng(7)
    n = 1_000_000
    crit = np.sqrt(np.log(2.0 / 0.001) / 2.0) / np.sqrt(n)  # KS, alpha = 0.001
    for m in all_models:
        draws = m.sample(rng, n)
        assert np.all(np.abs(draws) <= m.delta + 1e-12)
        xs = np.sort(draws)
        emp = np.arange(1, n + 1) / n
        sup = max(np.max(np.abs(emp - m.cdf(xs))),
                  np.max(np.abs(emp - 1.0 / n - m.cdf(xs))))
        assert sup < crit, m.kind


def test_sample_count_zero():
    rng = np.random.default_rng(0)
    out = sg.uniform(1.0).sample(rng, 0)
    assert out.shape == (0,)


_XS = np.linspace(-1.0, 1.0, 9)
_BLOCK_MODELS = {
    "uniform": sg.uniform(1.0),
    "triangular": sg.triangular(1.0),
    "truncated-normal-0.5": sg.truncated_normal(1.0, 0.5),
    "wide-normal": sg.truncated_normal(1.0, 2.0 * WIDE_SIGMA),
    "tabulated": sg.tabulated(_XS, 1.0 - 0.6 * np.abs(_XS)),
}
# counts around the simulator's chunk of 8192 draws, and past three of them
@pytest.mark.parametrize("count", [0, 1, 8191, 8192, 8193, 24581])
@pytest.mark.parametrize("kind", list(_BLOCK_MODELS))
def test_blocked_sample_is_the_whole_transform(kind, count):
    """A sample is inv_cdf of the uniforms, to the bit, and leaves the generator where one
    draw of them does."""
    model = _BLOCK_MODELS[kind]
    rng, twin = np.random.default_rng(41), np.random.default_rng(41)
    got = model.sample(rng, count)
    want = model.inv_cdf(twin.random(count))
    assert got.shape == (count,)
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_validate_passes(all_models):
    for m in all_models:
        report = sg.validate(m)
        assert report["passed"], (m.kind, report)
        names = {c["name"] for c in report["checks"]}
        assert {"support", "nonnegative", "symmetry", "normalization",
                "cdf_endpoints", "cdf_strictly_increasing"} <= names


def test_validate_flags_asymmetric_table():
    xs = np.linspace(-1.0, 1.0, 401)
    ps = np.where(xs < 0.0, 0.2, 0.8)
    model = sg.tabulated(xs, ps)
    report = sg.validate(model)
    assert not report["passed"]
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "symmetry" in failed


@pytest.mark.parametrize("tilt, symmetric", [(0.0, True), (1e-9, False)])
def test_the_symmetry_verdict_does_not_depend_on_the_scale(tilt, symmetric):
    # a tilt of 1e-9 of the peak is an asymmetry at every delta, the density's peak
    # near 1/delta
    xs = np.linspace(-1.0, 1.0, 101)
    ps = 1.0 - 0.5 * np.abs(xs) + tilt * xs
    for delta in (1e-6, 1.0, 1e6):
        report = sg.validate(sg.tabulated(delta * xs, ps))
        checks = {c["name"]: c["passed"] for c in report["checks"]}
        assert checks["symmetry"] is symmetric, delta


def test_validate_flags_flat_cdf_segment():
    xs = np.linspace(-1.0, 1.0, 401)
    ps = np.where(np.abs(xs) < 0.3, 0.0, 1.0)  # dead zone -> flat cdf inside
    report = sg.validate(sg.tabulated(xs, ps))
    assert not report["passed"]
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "cdf_strictly_increasing" in failed


def test_tabulated_from_csv(tmp_path):
    xs = np.linspace(-1.0, 1.0, 801)
    ps = 1.0 - np.abs(xs)
    path = tmp_path / "tri.csv"
    path.write_text("x,pdf\n" + "\n".join(f"{x},{p}" for x, p in zip(xs, ps)))
    m = sg.tabulated_from_csv(path)
    assert m.delta == 1.0
    assert abs(m.cdf(0.0) - 0.5) < 1e-9
    assert sg.validate(m)["passed"]


# only the first nonblank row may be a header; any later bad row is named
@pytest.mark.parametrize("text, line", [
    ("x\n-1\n0\n1\n", 2),
    ("np.float64(-1.0),0.5\nnp.float64(0.0),0.5\nnp.float64(1.0),0.5\n", 2),
    ("x,pdf\n-1,0.5\n\n0,0.5\nabc,0.5\n1,0.5\n", 5),
    ("-1,0.5,0\n0,0.5,0.5\n1,0.5,1\n", 2),
    ("x,pdf\n-1,0.5\n0,0.5,\n1,0.5, 1\n", 4),
], ids=["one-column", "all-malformed", "late-bad-row", "three-columns", "third-field"])
def test_malformed_csv_rows_are_named(tmp_path, text, line):
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(DomainError, match=f"^row {line} of .*table.csv is not two numbers"):
        sg.tabulated_from_csv(path)


def test_from_spec_dispatch():
    m = sg.from_spec({"kind": "truncated-normal", "delta": 2.0,
                      "params": {"sigma": 1.0}})
    assert m.kind == "truncated-normal" and m.delta == 2.0
    with pytest.raises(DomainError):
        sg.from_spec({"kind": "nope", "delta": 1.0, "params": {}})


# per kind: the spec's params, and the same model's factory arguments
_SPECS = {
    "uniform": ({}, (1.5,)),
    "truncated-normal": ({"sigma": 0.4}, (1.5, 0.4)),
    "triangular": ({}, (1.5,)),
    "tabulated": ({"xs": [-1.5, 0.0, 1.5], "pdf": [0.2, 1.0, 0.2]},
                  ([-1.5, 0.0, 1.5], [0.2, 1.0, 0.2])),
}


@pytest.mark.parametrize("kind", KINDS)
def test_from_spec_and_the_factory_agree_to_the_bit(kind):
    params, args = _SPECS[kind]
    got = sg.from_spec({"kind": kind, "delta": 1.5, "params": params})
    want = KINDS[kind][1](*args)
    assert (got.kind, got.delta, got.params) == (want.kind, want.delta, want.params)
    xs = np.linspace(-2.0, 2.0, 101)
    ps = np.linspace(0.0, 1.0, 101)
    assert np.array_equal(got.cdf(xs), want.cdf(xs))
    assert np.array_equal(got.inv_cdf(ps), want.inv_cdf(ps))
    for g, w in zip(got.partial_moments(xs), want.partial_moments(xs)):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("kind", [k for k in KINDS if k != "tabulated"])
def test_an_analytic_kind_defaults_to_delta_one(kind):
    assert sg.from_spec({"kind": kind, "params": _SPECS[kind][0]}).delta == 1.0


def _nested_where_cdf(model, x):
    """The CDF clamp as it was first written: the law's CDF clipped, then two nested wheres."""
    arr = np.asarray(x, dtype=float)
    lo, hi = model.support
    inside = np.clip(model.law.cdf(arr), 0.0, 1.0)
    return np.where(arr <= lo, 0.0, np.where(arr >= hi, 1.0, inside))


def test_cdf_clamp_is_pinned(all_models):
    for model in all_models:
        lo, hi = model.support
        d = model.delta
        assert type(model.cdf(0.25 * d)) is float and type(model.cdf(np.float64(lo))) is float
        edges = [lo, np.nextafter(lo, -np.inf), lo - d, -np.inf,
                 hi, np.nextafter(hi, np.inf), hi + d, np.inf]
        assert [model.cdf(x) for x in edges] == [0.0] * 4 + [1.0] * 4
        for grid in (np.linspace(-3.0 * d, 3.0 * d, 6001),
                     np.linspace(-3.0 * d, 3.0 * d, 3000).reshape(3, 1000)):
            got, ref = model.cdf(grid), _nested_where_cdf(model, grid)
            assert got.shape == grid.shape and got.dtype == np.float64
            assert np.array_equal(got.view(np.int64), ref.view(np.int64)), model.kind
