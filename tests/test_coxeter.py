"""Curvature normals and reflection-group closure on flat-normal orbits."""

import math

import numpy as np
import pytest

import normholo.coxeter as coxeter
from normholo.coxeter import (ANGLE_TOL, curvature_normals, focal_displacement,
                              hyperplane_permutation_check, reflection_group)
from normholo.errors import (ClosureCapReached, DegenerateSpectrum,
                             InvalidInput, NotApplicable, NotIsoparametric)
from normholo.linalg import mgs_qr, sym_eig
from normholo.orbit import build_orbit, shape_operators
from normholo import report
from normholo.report import ScenarioConfig, run_scenario
from normholo.srep import (CartanCurvature, SymmetricPairRep,
                           random_regular_point)


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
    with pytest.raises(NotIsoparametric, match=r"\(curvature norm "):
        curvature_normals(v3)


def test_flatness_reads_the_holonomy_curvature(monkeypatch):
    # coxeter decides flatness from the curvature factor the holonomy
    # analysis already formed, so the commutators are formed once
    calls = []
    commutators = CartanCurvature.commutators

    def counted(mats):
        calls.append(len(mats))
        return commutators(mats)

    monkeypatch.setattr(CartanCurvature, "commutators", staticmethod(counted))
    config = ScenarioConfig.from_dict({
        "rep": "sl-so:5", "point": "random-regular:0",
        "analyses": ["orbit", "holonomy", "coxeter"]})
    analyses = run_scenario(config).body()["analyses"]
    assert all(res["ok"] for res in analyses.values())
    assert len(calls) == 1


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


@pytest.mark.parametrize("r", [3, 4, 5, 6, 7])
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
    fake = a2_normals._replace(
        nu_coords=np.array([[1.0, 0.0], [np.cos(th), np.sin(th)]]),
        multiplicities=(1, 1))
    with pytest.raises(NotApplicable):
        reflection_group(fake)


@pytest.mark.parametrize("rep_spec, point_spec", [
    ("sl-so:3", "diag:1,0,-1"),
    ("sl-so:4", "random-regular:0"),
    ("sl-so:5", "random-regular:1"),
    ("sl-so:6", "random-regular:2"),
    ("product:sl-so:3,sl-so:3", "random-regular:1;random-regular:2"),
])
def test_curvature_normals_are_the_scaled_roots(rep_spec, point_spec):
    # at a regular diagonal point v of unit norm the curvature normals are
    # -(e_i - e_j)/(v_i - v_j) over the pairs i < j inside one block (the
    # roots of each A_{r-1} scaled by <alpha, v>), each of multiplicity 1
    rep = report.parse_rep_spec(rep_spec)
    M = build_orbit(rep, report.parse_point_spec(rep, point_spec))
    v = np.diag(M.point)
    assert np.array_equal(M.point, np.diag(v))
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-15
    want = []
    for sl in rep.block_slices:
        for i in range(sl.start, sl.stop):
            for j in range(i + 1, sl.stop):
                root = np.zeros(len(v))
                root[i], root[j] = 1.0, -1.0
                want.append(-np.diag(root) / (v[i] - v[j]))
    want = np.array(want)
    cn = curvature_normals(M)
    assert cn.multiplicities == (1,) * len(want)
    rel = (np.linalg.norm(cn.normals[:, None] - want[None], axis=(2, 3))
           / np.linalg.norm(want, axis=(1, 2)))
    nearest = np.argmin(rel, axis=1)
    assert sorted(nearest.tolist()) == list(range(len(want)))
    assert np.max(rel[np.arange(len(want)), nearest]) <= 1e-12


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
    assert body["group"] == {"order": math.factorial(r), "spanDim": r - 1,
                             "closureDefect": body["group"]["closureDefect"]}
    assert body["group"]["closureDefect"] < 1e-10
    assert [d["orbitDim"] for d in body["singularDrops"]] \
        == [count - 1] * count


def _reference_line_permutation(g, units):
    """Signed permutation that g induces on the normal lines, or None."""
    dots = units @ g @ units.T
    targets = np.argmax(np.abs(dots), axis=0)
    best = dots[targets, np.arange(units.shape[0])]
    angles = np.arccos(np.clip(np.abs(best), -1.0, 1.0))
    if len(set(targets.tolist())) < units.shape[0] \
            or float(np.max(angles)) > ANGLE_TOL:
        return None
    return tuple(targets.tolist()), tuple(np.where(best < 0, -1, 1).tolist())


def _reference_closure(normals):
    """Per-pair breadth-first closure: one product and one tuple key per
    (element, generator) pair.  Returns (elements, closure_defect)."""
    span, _, _ = mgs_qr(normals.nu_coords.T, tol=normals.orbit.tols.rank)
    u = normals.nu_coords @ span
    units = u / np.linalg.norm(u, axis=1, keepdims=True)
    r, s = u.shape
    gens = np.stack([np.eye(s) - 2.0 * np.outer(v, v) for v in units])
    gen_keys = [_reference_line_permutation(g, units) for g in gens]
    keys = [(tuple(range(r)), (1,) * r)]
    elements = [np.eye(s)]
    index = {keys[0]: 0}
    defect = 0.0
    for e, (te, se) in zip(elements, keys):
        for g, (tg, sg) in zip(gens, gen_keys):
            key = (tuple(te[t] for t in tg),
                   tuple(sg[i] * se[t] for i, t in enumerate(tg)))
            prod = e @ g
            j = index.get(key)
            if j is not None:
                defect = max(defect, float(np.max(np.abs(prod - elements[j]))))
            else:
                index[key] = len(elements)
                keys.append(key)
                elements.append(prod)
    return elements, defect


def _orbit_of(name):
    if name == "a2":
        return build_orbit(SymmetricPairRep.for_size(3),
                           np.diag([1.0, 0.0, -1.0]))
    if name == "circle":
        return build_orbit(SymmetricPairRep.for_size(2), np.diag([1.0, -1.0]))
    if name == "product-2-2":
        return build_orbit(SymmetricPairRep.product((2, 2)),
                           np.diag([1.0, -1.0, 0.7, -0.7]))
    if name == "product-3-4":
        sizes, seed = (3, 4), 2
    else:
        r = int(name[len("sl-so:"):])
        sizes, seed = (r,), r
    rep = SymmetricPairRep.product(sizes)
    return build_orbit(rep, random_regular_point(rep, seed))


def _normals_of(name):
    return curvature_normals(_orbit_of(name))


@pytest.mark.parametrize("name", ["a2", "circle", "product-2-2",
                                  "product-3-4", "sl-so:3", "sl-so:4",
                                  "sl-so:5", "sl-so:6"])
def test_closure_matches_per_pair_reference(name):
    cn = _normals_of(name)
    g = reflection_group(cn)
    elements, defect = _reference_closure(cn)
    assert g.order == len(elements)
    assert len(g.elements) == len(elements)
    assert all(np.array_equal(a, b) for a, b in zip(g.elements, elements))
    assert g.closure_defect == defect
    assert reflection_group(cn, cap=g.order).order == g.order
    with pytest.raises(ClosureCapReached):
        reflection_group(cn, cap=g.order - 1)


def _reference_normals(M, seed=0):
    """Cluster refinement that also eigensolves 1x1 blocks; returns
    (multiplicities, nu_coords, residual) and the sym_eig call count."""
    ops = shape_operators(M)
    k = ops.shape[0]
    tols = M.tols
    calls = 1
    w = np.random.default_rng(seed).standard_normal(k)
    dec = sym_eig(np.einsum("a,aij->ij", w, ops), tols=tols)
    vectors = dec.vectors.copy()
    blocks = [list(c) for c in dec.clusters]
    changed = True
    while changed:
        changed = False
        for a in range(k):
            new_blocks = []
            for blk in blocks:
                vb = vectors[:, blk]
                b = vb.T @ ops[a] @ vb
                sub = sym_eig(0.5 * (b + b.T), tols=tols)
                calls += 1
                if len(sub.clusters) > 1:
                    vectors[:, blk] = vb @ sub.vectors
                    new_blocks += [[blk[j] for j in c] for c in sub.clusters]
                    changed = True
                else:
                    new_blocks.append(blk)
            blocks = new_blocks
    eigtable = np.zeros((k, len(blocks)))
    residual = 0.0
    for i, blk in enumerate(blocks):
        vb = vectors[:, blk]
        for a in range(k):
            b = vb.T @ ops[a] @ vb
            mean = float(np.trace(b)) / len(blk)
            residual = max(residual,
                           float(np.linalg.norm(b - mean * np.eye(len(blk)))))
            eigtable[a, i] = mean
    order = sorted(range(len(blocks)), key=lambda i: tuple(eigtable[:, i]))
    merged, cols = [], []
    for i in order:
        if cols and np.max(np.abs(cols[-1] - eigtable[:, i])) \
                <= 1e2 * tols.eig:
            merged[-1].extend(blocks[i])
        else:
            merged.append(list(blocks[i]))
            cols.append(eigtable[:, i])
    return tuple(len(b) for b in merged), np.stack(cols), residual, calls


def _matches_reference(M, monkeypatch):
    """curvature_normals(M) takes one sym_eig and gives exactly the
    reference's normals; returns the reference's sym_eig count."""
    mults, coords, residual, ref_calls = _reference_normals(M)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return sym_eig(*args, **kwargs)

    monkeypatch.setattr(coxeter, "sym_eig", counted)
    cn = curvature_normals(M)
    assert len(calls) == 1
    assert cn.multiplicities == mults
    assert np.array_equal(cn.nu_coords, coords)
    assert cn.residual == residual
    return ref_calls


@pytest.mark.parametrize("r", [3, 4, 5])
def test_refinement_skips_one_by_one_blocks(r, monkeypatch):
    rep = SymmetricPairRep.for_size(r)
    M = build_orbit(rep, random_regular_point(rep, r))
    assert _matches_reference(M, monkeypatch) == {3: 7, 4: 19, 5: 41}[r]


@pytest.mark.parametrize("name", ["a2", "product-3-4", "sl-so:6"])
def test_one_eigensolve_matches_refinement_reference(name, monkeypatch):
    # the reference refines, audits and merges; on a flat-normal orbit
    # the one seeded eigensolve already has its blocks
    _matches_reference(_orbit_of(name), monkeypatch)


def test_unseparating_draw_names_the_seed_remedy(a2_orbit, a2_normals,
                                                monkeypatch):
    # w orthogonal to eta_1 - eta_2 gives E_1 and E_2 one eigenvalue of
    # sum w_a A_a, so their cluster is not scalar for every operator
    d = a2_normals.nu_coords[0] - a2_normals.nu_coords[1]
    w = np.array([-d[1], d[0]])

    class Draw:
        def standard_normal(self, k):
            assert k == len(w)
            return w

    monkeypatch.setattr(coxeter.np.random, "default_rng", lambda seed: Draw())
    with pytest.raises(DegenerateSpectrum, match="try another --seed"):
        curvature_normals(a2_orbit, seed=5)


@pytest.mark.parametrize("point", ["veronese", "diag:1,-1", "random-regular:0",
                                   "random-regular:1", "random-regular:3"])
def test_circle_focal_point_is_the_origin(point):
    # the sl-so:2 orbit is a circle; its one curvature normal focuses at
    # the origin, an orbit of dimension 0
    config = ScenarioConfig.from_dict({"rep": "sl-so:2", "point": point,
                                       "analyses": ["coxeter"]})
    body = run_scenario(config).body()["analyses"]["coxeter"]
    assert body["ok"] is True
    assert body["singularDrops"] == [
        {"normalIndex": 0, "orbitDim": 0, "drops": True}]


@pytest.mark.parametrize("rep_spec, point_spec", [
    ("sl-so:3", "diag:1,0,-1"),
    ("sl-so:4", "random-regular:0"),
    ("sl-so:4", "random-regular:3"),
    ("sl-so:5", "random-regular:0"),
    ("sl-so:5", "random-regular:4"),
    ("product:sl-so:2,sl-so:2", "random-regular:0;random-regular:1"),
    ("product:sl-so:2,sl-so:3", "diag:1,-1;random-regular:0"),
    ("sl-so:2", "diag:1,-1"),
])
def test_focal_orbit_dims_match_build_orbit(rep_spec, point_spec,
                                            build_orbit_calls):
    # the stacked focal dimensions are build_orbit's at every displacement
    # but the origin, and the coxeter section builds no orbit to get them
    for seed in (0, 1, 2):
        config = ScenarioConfig.from_dict({
            "rep": rep_spec, "point": point_spec, "analyses": ["coxeter"],
            "seed": seed})
        M = build_orbit(config.representation, config.base_point,
                        tols=config.resolve_tolerances())
        drops = report._coxeter_analysis(M, config)["singularDrops"]
        assert build_orbit_calls == []
        cn = curvature_normals(M, seed=seed)
        assert len(drops) == cn.count
        for i, drop in enumerate(drops):
            z = focal_displacement(cn, i, seed=seed + i + 1)
            if drop["orbitDim"] == 0:
                assert rep_spec == "sl-so:2"
                assert np.linalg.norm(z) <= M.tols.rank
            else:
                assert drop["orbitDim"] == build_orbit(M.rep, z,
                                                       tols=M.tols).dim
