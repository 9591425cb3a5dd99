"""Truncated factorial-growth counterexample: F, v, growth, tails."""

import math

import numpy as np
import pytest

from cstarframes import (
    AlgebraElement,
    Frame,
    ModuleVector,
    SampleSet,
    build_setting,
    coeff_growth,
    image_sample,
    single_generator_approx,
    tail_obstruction,
    theta_op,
)


def test_smallest_truncation():
    setting = build_setting(1, 1)
    assert (setting.operator(setting.generator) - setting.generator).norm() <= 1e-12
    # at (1,1), F acts as theta_{e1 delta1, e1} on the module part
    theta = theta_op(setting.witness(1), setting.basis_vector(1))
    x = setting.basis_vector(1) * setting.delta(1) * 2.0
    assert (setting.operator(x) - theta(x)).norm() <= 1e-12


def test_f_fixes_witnesses():
    for trunc, dim in ((3, 2), (5, 5), (9, 7)):
        setting = build_setting(trunc, dim)
        for k in range(1, dim + 1):
            w = setting.witness(k)
            assert (setting.operator(w) - w).norm() <= 1e-13


def test_f_norm_is_one():
    setting = build_setting(8, 8)
    assert setting.operator.norm() == pytest.approx(1.0, abs=1e-12)


def test_dimension_bound_enforced():
    with pytest.raises(ValueError, match="dim"):
        build_setting(4, 5)
    with pytest.raises(ValueError):
        build_setting(0)


def test_dim_defaults_to_trunc():
    setting = build_setting(5)
    assert setting.dim == 5


def test_limit_coordinate_kills_indicators():
    setting = build_setting(4, 4)
    ident = AlgebraElement.identity(setting.shape)
    assert ident.blocks[-1][0, 0] == 1.0
    for k in range(1, 5):
        assert setting.delta(k).blocks[-1][0, 0] == 0.0


def test_coeff_growth_first_step():
    setting = build_setting(4, 4)
    rows = dict(coeff_growth(setting, eps=0.25))
    assert rows[1] == pytest.approx(0.75, abs=1e-12)


def test_coeff_growth_factorial_lower_bound():
    setting = build_setting(8, 8)
    eps = 0.1
    for k, required in coeff_growth(setting, eps):
        assert required >= 0.9 * math.factorial(k) - 1e-9 * math.factorial(k)


def test_coeff_growth_frozen_k5():
    setting = build_setting(8, 8)
    rows = dict(coeff_growth(setting, eps=0.1))
    assert rows[5] >= 108.0 - 1e-9
    assert rows[5] == pytest.approx(0.9 * 120.0, rel=1e-12)


def test_coeff_growth_degrades_near_one():
    setting = build_setting(5, 5)
    rows = dict(coeff_growth(setting, eps=0.999))
    assert rows[5] <= 0.0011 * math.factorial(5)


def test_coeff_growth_rejects_bad_eps():
    setting = build_setting(3, 3)
    with pytest.raises(ValueError):
        coeff_growth(setting, eps=0.0)


def test_tail_obstruction_exactly_one():
    for trunc, dim in ((4, 4), (8, 8)):
        setting = build_setting(trunc, dim)
        for n in range(dim):
            assert tail_obstruction(setting, n) == pytest.approx(1.0, abs=1e-12)


def test_tail_obstruction_needs_witness():
    setting = build_setting(4, 4)
    with pytest.raises(ValueError, match="witness"):
        tail_obstruction(setting, 4)


def test_tail_obstruction_cross_checks_frame_route(monkeypatch):
    setting = build_setting(4, 4)
    exact = Frame.tail_profiles
    monkeypatch.setattr(
        Frame, "tail_profiles", lambda self, stacks: exact(self, stacks) + 1e-9
    )
    with pytest.raises(AssertionError, match="disagrees"):
        tail_obstruction(setting, 1)


def test_tail_obstruction_checks_every_prefix_of_explicit_points(monkeypatch):
    setting = build_setting(4, 4)
    points = image_sample(setting, count=3, seed=1).points
    exact = Frame.tail_profiles

    def off_at_last_prefix(self, stacks):
        tails = exact(self, stacks)
        tails[:, -1] += 1e-9
        return tails

    monkeypatch.setattr(Frame, "tail_profiles", off_at_last_prefix)
    with pytest.raises(AssertionError, match="disagrees"):
        tail_obstruction(setting, 0, points=points)


def test_tail_obstruction_rejects_prefix_beyond_dim():
    setting = build_setting(4, 4)
    with pytest.raises(ValueError, match="out of range"):
        tail_obstruction(setting, 5, points=setting.witnesses())


def test_setting_frame_is_built_once():
    setting = build_setting(4, 3)
    assert setting.frame is setting.frame
    assert setting.frame.size == setting.dim
    assert setting.frame.bounds == (1.0, 1.0)


def test_truncation_ceiling_rejected_before_building():
    build_setting(170, 1)
    with pytest.raises(ValueError, match="exceeds 170"):
        build_setting(171, 1)


def test_tail_over_bulk_strictly_smaller():
    setting = build_setting(6, 6)
    bulk = image_sample(setting, count=12, seed=3, include_witnesses=False)
    n = setting.dim - 1
    bulk_value = tail_obstruction(setting, n, points=bulk.points)
    assert bulk_value < 0.999
    assert tail_obstruction(setting, n) == pytest.approx(1.0, abs=1e-12)


def test_single_generator_reproduces_generator():
    setting = build_setting(8, 8)
    res = single_generator_approx(setting, setting.generator, eps=1e-9)
    assert res.achieved
    assert res.prefix == 8
    assert res.residual <= 1e-12
    # the proof's coefficient at full prefix: sum of all position indicators
    want = AlgebraElement.zero(setting.shape)
    for k in range(1, 9):
        want = want + setting.delta(k)
    assert (res.coefficient - want).norm() <= 1e-9


def test_single_generator_witness_coefficient():
    setting = build_setting(6, 6)
    res = single_generator_approx(setting, setting.witness(4), eps=1e-9)
    assert res.achieved
    assert res.residual <= 1e-12
    want = setting.delta(4) * float(math.factorial(4))
    assert (res.coefficient - want).norm() <= 1e-9


def test_single_generator_on_random_images():
    setting = build_setting(7, 7)
    sample = image_sample(setting, count=10, seed=11)
    for y in sample.points:
        res = single_generator_approx(setting, y, eps=1e-6)
        assert res.achieved
        assert res.residual < 1e-6
        assert res.floor <= 1e-9
        profile = res.residual_profile
        for earlier, later in zip(profile, profile[1:]):
            assert later <= earlier + 1e-12


def test_single_generator_floor_off_range():
    setting = build_setting(4, 4)
    off = setting.basis_vector(1) * setting.delta(2)
    res = single_generator_approx(setting, off, eps=1e-6)
    assert not res.achieved
    assert res.floor == pytest.approx(1.0, abs=1e-12)


def test_image_sample_in_range_form():
    setting = build_setting(5, 5)
    sample = image_sample(setting, count=8, seed=0)
    for y in sample.points:
        assert y.norm() <= 1.0 + 1e-9
        for k in range(1, setting.dim + 1):
            coord = y.coords[k - 1]
            for b, blk in enumerate(coord.blocks):
                if b != k - 1:
                    assert abs(blk[0, 0]) <= 1e-13
