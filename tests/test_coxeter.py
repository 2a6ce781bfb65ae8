"""Curvature normals and reflection-group closure on flat-normal orbits."""

import math
from dataclasses import replace

import numpy as np
import pytest

from normholo.coxeter import (curvature_normals, focal_displacement,
                              hyperplane_permutation_check, reflection_group)
from normholo.errors import (ClosureCapReached, InvalidInput, NotApplicable,
                             NotIsoparametric)
from normholo.orbit import build_orbit
from normholo.report import ScenarioConfig, run_scenario
from normholo.srep import SymmetricPairRep, random_regular_point


@pytest.fixture(scope="module")
def a2_normals(a2_orbit):
    return curvature_normals(a2_orbit)


@pytest.fixture(scope="module")
def a2_group(a2_normals):
    return reflection_group(a2_normals)


def test_regular_orbit_normals(a2_normals):
    assert a2_normals.count == 3
    assert a2_normals.multiplicities == (1, 1, 1)
    assert a2_normals.residual <= 1e-8
    assert sum(a2_normals.multiplicities) == a2_normals.orbit.dim


def test_position_pairings(a2_normals):
    assert np.allclose(a2_normals.position_pairings(), -1.0, atol=1e-9)


def test_dihedral_angles(a2_normals):
    deg = np.degrees(a2_normals.pairwise_angles())
    off = sorted(deg[i, j] for i in range(3) for j in range(3) if i != j)
    assert np.allclose(off, [60, 60, 60, 60, 120, 120], atol=1e-6)


def test_reflection_group_order_six(a2_group):
    assert a2_group.finite
    assert a2_group.order == 6
    assert a2_group.span_dim == 2
    assert a2_group.closure_defect < 1e-10


def test_every_element_permutes_hyperplanes(a2_group):
    for e in a2_group.elements:
        assert hyperplane_permutation_check(e, a2_group)


def test_irrational_rotation_fails_check(a2_group):
    th = 0.5
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert not hyperplane_permutation_check(rot, a2_group)


def test_focal_displacements_drop_dimension(a2_orbit, a2_normals):
    for i in range(a2_normals.count):
        q = focal_displacement(a2_normals, i)
        dropped = build_orbit(a2_orbit.rep, q)
        assert dropped.dim == a2_orbit.dim - 1
    with pytest.raises(InvalidInput):
        focal_displacement(a2_normals, a2_normals.count)


def test_closure_cap(a2_normals):
    with pytest.raises(ClosureCapReached):
        reflection_group(a2_normals, cap=3)


def test_curved_orbit_rejected(v3):
    with pytest.raises(NotIsoparametric):
        curvature_normals(v3)


def test_circle_orbit():
    m = build_orbit(SymmetricPairRep.for_size(2), np.diag([1.0, -1.0]))
    cn = curvature_normals(m)
    assert cn.count == 1
    assert cn.multiplicities == (1,)
    assert abs(cn.position_pairings()[0] + 1.0) < 1e-10
    assert reflection_group(cn).order == 2


def test_product_orbit_splits_perpendicularly():
    rep = SymmetricPairRep.product((2, 2))
    m = build_orbit(rep, np.diag([1.0, -1.0, 0.7, -0.7]))
    cn = curvature_normals(m)
    assert cn.count == 2
    assert cn.multiplicities == (1, 1)
    deg = np.degrees(cn.pairwise_angles())
    assert abs(deg[0, 1] - 90.0) < 1e-6
    g = reflection_group(cn)
    assert g.order == 4                 # two commuting reflections
    for e in g.elements:
        assert hyperplane_permutation_check(e, g)


def test_normals_reproduce_eigenvalues(a2_orbit, a2_normals):
    from normholo.orbit import shape_operators
    ops = shape_operators(a2_orbit)
    vecs = a2_normals.distributions
    for i, (s0, s1) in enumerate(a2_normals.block_slices):
        for a in range(ops.shape[0]):
            block = vecs[:, s0:s1].T @ ops[a] @ vecs[:, s0:s1]
            want = a2_normals.nu_coords[i] @ np.eye(a2_orbit.codim)[a]
            assert np.allclose(block, want * np.eye(s1 - s0), atol=1e-9)


def _regular_normals(sizes, seed):
    rep = SymmetricPairRep.product(sizes)
    return curvature_normals(build_orbit(rep, random_regular_point(rep, seed)))


@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_weyl_group_of_principal_orbit(r):
    cn = _regular_normals((r,), seed=r)
    assert cn.count == r * (r - 1) // 2
    g = reflection_group(cn)
    assert g.order == math.factorial(r)
    assert g.span_dim == r - 1
    assert g.closure_defect < 1e-10
    assert all(hyperplane_permutation_check(e, g) for e in g.elements)


def test_product_weyl_group_is_direct_product():
    g = reflection_group(_regular_normals((3, 4), seed=2))
    assert g.order == 6 * 24
    assert g.span_dim == 2 + 3
    assert g.closure_defect < 1e-10


def test_normals_not_a_root_system_rejected(a2_normals):
    # two lines 72 degrees apart: each reflection sends the other line
    # off the set, although the generated dihedral group is finite
    th = np.radians(72.0)
    fake = replace(a2_normals, nu_coords=np.array([[1.0, 0.0],
                                                   [np.cos(th), np.sin(th)]]),
                   multiplicities=(1, 1))
    with pytest.raises(NotApplicable):
        reflection_group(fake)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_coxeter_report_body(r):
    config = ScenarioConfig.from_dict({
        "rep": f"sl-so:{r}", "point": f"random-regular:{r}",
        "analyses": ["coxeter"], "seed": 1})
    body = run_scenario(config).body()["analyses"]["coxeter"]
    count = r * (r - 1) // 2
    assert body["ok"] is True
    assert body["normalCount"] == count
    assert body["multiplicities"] == [1] * count
    assert np.allclose(body["positionPairings"], -1.0, atol=1e-9)
    angles = np.array(body["pairwiseAnglesDeg"])
    assert np.allclose(np.diag(angles), 0.0, atol=1e-5)
    off = angles[~np.eye(count, dtype=bool)]
    # A_{r-1} roots meet at 60, 90 or 120 degrees
    assert np.min(np.abs(off[:, None] - [60.0, 90.0, 120.0]), axis=1).max() \
        < 1e-6
    assert body["group"] == {"order": math.factorial(r), "finite": True,
                             "spanDim": r - 1,
                             "closureDefect": body["group"]["closureDefect"]}
    assert body["group"]["closureDefect"] < 1e-10
    assert [d["orbitDim"] for d in body["singularDrops"]] \
        == [count - 1] * count
