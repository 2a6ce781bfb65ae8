"""Curvature normals and reflection groups of isoparametric orbits.

A principal orbit with flat normal bundle carries a commuting family of
shape operators.  Their common eigendistributions define curvature
normals eta_i in the normal space.  On a principal orbit they form a
root system: the reflections across the hyperplanes eta_i-perp permute
the finite set of normal lines, so they generate a finite group (the
Weyl group, S_r for sl-so:r) acting on the span of the normals.  Each
element is keyed by the signed permutation it induces on those lines,
an exact int vector, and the closure composes keys exactly.  The
closure is breadth-first and runs one level at a time: the keys of all
(element, generator) pairs of a level are composed by fancy indexing
and looked up in one dict, and the products are batched matmuls, so the
Python work per pair is one dict lookup.  Each temporary block holds at
most _CHUNK_FLOATS floats.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (ClosureCapReached, DegenerateSpectrum, InvalidInput,
                     NotApplicable, NotIsoparametric)
from .holonomy import adapted_curvature
from .linalg import mgs_qr, sym_eig
from .orbit import OrbitSubmanifold, shape_operators

CLOSURE_CAP = 10_000
ANGLE_TOL = 1e-6
# floats per temporary block of the closure: pairs per batched product
# and elements per line-map check are sized to stay under it
_CHUNK_FLOATS = 8192


class CurvatureNormalSet(NamedTuple):
    """Common eigendistributions of the shape-operator family.

    normals holds one carrier matrix per distinct curvature normal;
    nu_coords are their coordinates in the orbit's normal frame, so
    row i solves <xi_a, eta_i> = (eigenvalue of A_a on E_i) over the
    frame.  residual bounds the scalarity defect of every operator on
    every eigendistribution.
    """

    orbit: OrbitSubmanifold
    normals: np.ndarray          # (r, d, d) carrier matrices
    nu_coords: np.ndarray        # (r, K) coords in the normal frame
    multiplicities: tuple        # eigendistribution dims, sum = dim M
    distributions: np.ndarray    # (n, n) eigenvector columns, blocked
    block_slices: tuple          # (start, stop) per normal
    residual: float

    @property
    def count(self) -> int:
        return len(self.multiplicities)

    def position_pairings(self) -> np.ndarray:
        """<v, eta_i> for every normal; -1 throughout for orbit data."""
        p = self.orbit.point
        return np.einsum("ij,kij->k", p, self.normals)

    def pairwise_angles(self) -> np.ndarray:
        """Angles between the normals as vectors in the normal space."""
        g = self.nu_coords @ self.nu_coords.T
        norms = np.sqrt(np.diag(g))
        cosines = np.clip(g / np.outer(norms, norms), -1.0, 1.0)
        return np.arccos(cosines)


def curvature_normals(M: OrbitSubmanifold,
                      seed: int = 0) -> CurvatureNormalSet:
    """Curvature normals of a flat-normal orbit from one eigensolve.

    The normal bundle is flat when the orbit's curvature factor
    (holonomy.adapted_curvature, shared with the holonomy analysis) kept
    no column; otherwise this raises NotIsoparametric.  The shape
    operators of a principal orbit with flat normal bundle commute, so
    the eigenspaces of one seeded generic combination sum w_a A_a are
    already the common eigendistributions (Terng).
    Each eigenvalue cluster compresses the whole operator stack: the
    trace means are that normal's coordinates, and the spread from the
    mean bounds the scalarity residual.  The blocks are sorted by their
    coordinate columns.  A draw w that does not separate two normals
    leaves a non-scalar block and raises DegenerateSpectrum; another
    seed draws another w.
    """
    curv = adapted_curvature(M)
    if curv.factor.shape[1]:
        raise NotIsoparametric(
            f"normal bundle is not flat (curvature norm {curv.norm():.3e}); "
            "curvature normals need a principal isoparametric orbit")
    ops = shape_operators(M)
    tols = M.tols
    w = np.random.default_rng(seed).standard_normal(len(ops))
    dec = sym_eig(np.einsum("a,aij->ij", w, ops), tols=tols)
    blocks = [list(c) for c in dec.clusters]
    cols = np.empty((len(blocks), len(ops)))
    residual = 0.0
    for i, blk in enumerate(blocks):
        vb = dec.vectors[:, blk]
        b = vb.T @ ops @ vb                # every operator on the block
        cols[i] = np.trace(b, axis1=1, axis2=2) / len(blk)
        spread = b - cols[i][:, None, None] * np.eye(len(blk))
        residual = max(residual, float(np.max(
            np.linalg.norm(spread, axis=(1, 2)))))
    if residual > 1e2 * tols.eig:
        raise DegenerateSpectrum(
            f"the seeded combination of shape operators left a non-scalar "
            f"block (residual {residual:.3e}): its draw did not separate "
            f"two curvature normals; try another --seed (was {seed})")

    order = sorted(range(len(blocks)), key=lambda i: tuple(cols[i]))
    blocks = [blocks[i] for i in order]
    coords = cols[order]
    mults = tuple(len(blk) for blk in blocks)
    ends = np.cumsum(mults).tolist()
    slices = tuple(zip([0] + ends[:-1], ends))
    normals = np.einsum("ra,aij->rij", coords, M.normal_frame)
    return CurvatureNormalSet(
        orbit=M, normals=normals, nu_coords=coords, multiplicities=mults,
        distributions=dec.vectors[:, [j for blk in blocks for j in blk]],
        block_slices=slices, residual=residual)


class ReflectionGroup(NamedTuple):
    """Closure of the reflections across the curvature-normal hyperplanes.

    Elements are orthogonal matrices in an orthonormal basis of
    span{eta_i}; span_basis carries that basis back to normal-frame
    coordinates.
    """

    span_basis: np.ndarray       # (K, s) columns, normal-frame coords
    normal_span_coords: np.ndarray   # (r, s) the normals in that basis
    generators: np.ndarray       # (r, s, s)
    elements: tuple              # of (s, s) arrays
    finite: bool                 # always True: reflection_group raises otherwise
    order: int
    closure_defect: float

    @property
    def span_dim(self) -> int:
        return self.span_basis.shape[1]


def _line_maps(stack: np.ndarray, units: np.ndarray):
    """Signed line maps of an (N, s, s) stack, and which of them are valid.

    maps[k, i] = sign * (target + 1) with g_k u_i = sign u_target within
    ANGLE_TOL; ok[k] is False when the image lines of g_k do not land one
    to one on the normal lines.
    """
    r = units.shape[0]
    dots = units @ stack @ units.T      # dots[k, j, i] = <u_j, g_k u_i>
    targets = np.argmax(np.abs(dots), axis=1)
    best = dots[np.arange(len(dots))[:, None], targets, np.arange(r)]
    angles = np.arccos(np.clip(np.abs(best), -1.0, 1.0))
    ok = (np.sort(targets, axis=1) == np.arange(r)).all(axis=1)
    ok &= np.max(angles, axis=1) <= ANGLE_TOL
    return np.where(best < 0, -1, 1) * (targets + 1), ok


def reflection_group(normals: CurvatureNormalSet,
                     cap: int = CLOSURE_CAP) -> ReflectionGroup:
    """Generate and close the group of reflections across eta_i-perp.

    Acts on span{eta_i}; each element is keyed by the signed permutation
    it induces on the normal lines (exact, since the normals span),
    stored as the int vector sign * (target + 1).  The breadth-first
    closure runs one level at a time: fancy indexing composes the keys
    of the level's (element, generator) pairs, one dict looks them up,
    and batched matmuls over chunks of pairs form the products.  New
    elements are appended in (element, generator) queue order, so the
    elements and closure_defect (the largest gap between a product and
    the element stored under its key) are those of a pair-by-pair
    closure.  Raises NotApplicable when a
    reflection does not permute the lines, ClosureCapReached past cap
    elements, and DegenerateSpectrum for an element that is not
    orthogonal or does not realise its key.
    """
    if normals.count == 0:
        raise InvalidInput("no curvature normals to reflect across")
    span, _, _ = mgs_qr(normals.nu_coords.T, tol=normals.orbit.tols.rank)
    u = normals.nu_coords @ span           # (r, s)
    units = u / np.linalg.norm(u, axis=1, keepdims=True)
    r, s = u.shape
    gens = np.eye(s) - 2.0 * (units[:, :, None] * units[:, None, :])
    gen_maps, gen_ok = _line_maps(gens, units)
    if not gen_ok.all():
        raise NotApplicable("a reflection across eta_i-perp does not "
                            "permute the normal lines; the curvature "
                            "normals are not a root system")
    # (e g) u_i = sg_i se_{tg_i} u_{te[tg_i]}: key(e g)[i] = sg_i key(e)[tg_i]
    gen_signs = np.where(gen_maps < 0, -1, 1)
    gen_targets = gen_maps * gen_signs - 1
    as_bytes = np.dtype((np.void, r * gen_maps.itemsize))
    pair_chunk = max(1, _CHUNK_FLOATS // (s * s))   # (pairs, s, s) blocks
    line_chunk = max(1, _CHUNK_FLOATS // (r * r))   # (elements, r, r) blocks

    stack = np.eye(s)[None]                # every element, in queue order
    keys = [np.arange(1, r + 1)[None]]     # their keys, one block a level
    index = {keys[0].tobytes(): 0}
    closure_defect = 0.0
    start = 0                              # stack[start:] is the last level
    while start < len(stack):
        level, level_keys = stack[start:], keys[-1]
        first = len(stack)
        # pair q is (element q // r of the level, generator q % r)
        refs = []
        for lo in range(0, len(level), line_chunk):
            pair_keys = level_keys[lo:lo + line_chunk][:, gen_targets] \
                * gen_signs
            refs += [index.setdefault(key, len(index)) for key in
                     pair_keys.reshape(-1, r).view(as_bytes).ravel().tolist()]
        if len(index) > cap:
            raise ClosureCapReached(
                f"reflection closure exceeded {cap} elements; "
                "group may be infinite")
        # new keys are numbered in queue order, so a pair adds an element
        # exactly where the running maximum of refs rises past first - 1
        refs = np.array(refs)
        top = np.maximum.accumulate(refs)
        adds = np.flatnonzero((np.diff(top, prepend=first - 1) > 0)
                              & (top >= first))
        a, b = adds // r, adds % r
        keys.append(level_keys[a[:, None], gen_targets[b]] * gen_signs[b])
        new = np.empty((len(adds), s, s))
        for lo in range(0, len(adds), pair_chunk):
            q = slice(lo, lo + pair_chunk)
            new[q] = level[a[q]] @ gens[b[q]]
        stack = np.concatenate([stack, new])
        start = first
        compared = np.ones(len(refs), dtype=bool)
        compared[adds] = False
        compared = np.flatnonzero(compared)
        for lo in range(0, len(compared), pair_chunk):
            q = compared[lo:lo + pair_chunk]
            gap = np.abs(level[q // r] @ gens[q % r] - stack[refs[q]])
            closure_defect = max(closure_defect, float(np.max(gap)))

    keys = np.concatenate(keys)
    worst_orth = 0.0
    keys_ok = True
    for lo in range(0, len(stack), line_chunk):
        block = stack[lo:lo + line_chunk]
        gram = np.swapaxes(block, 1, 2) @ block - np.eye(s)
        worst_orth = max(worst_orth, float(np.max(
            np.linalg.norm(gram, axis=(1, 2)))))
        maps, ok = _line_maps(block, units)
        keys_ok = keys_ok and bool(ok.all()) \
            and bool((maps == keys[lo:lo + len(block)]).all())
    if worst_orth > 1e-10:
        raise DegenerateSpectrum(
            f"closure produced a non-orthogonal element ({worst_orth:.3e})")
    if not keys_ok:
        raise DegenerateSpectrum("a closure element does not induce the "
                                 "line permutation it was keyed by")
    return ReflectionGroup(span_basis=span, normal_span_coords=u,
                           generators=gens, elements=tuple(stack),
                           finite=True, order=len(stack),
                           closure_defect=closure_defect)


def hyperplane_permutation_check(g: np.ndarray,
                                 group: ReflectionGroup) -> bool:
    """Whether g maps the set of normal lines onto itself.

    g acts in the span basis.  Each image line must land on some normal
    line within ANGLE_TOL, and the assignment must be a bijection.
    """
    u = group.normal_span_coords
    units = u / np.linalg.norm(u, axis=1, keepdims=True)
    return bool(_line_maps(np.asarray(g, dtype=float)[None], units)[1][0])


def focal_displacement(normals: CurvatureNormalSet, index: int,
                       seed: int = 0) -> np.ndarray:
    """A carrier point v + xi with <xi, eta_index> = 1, generic otherwise.

    Orbits through such points lose the index-th eigendistribution from
    their tangent space, so their dimension drops strictly.  The seeded
    in-hyperplane component is redrawn, up to 16 times, until the point
    is clear of the other focal hyperplanes; in a one-dimensional normal
    space the hyperplane is a single point and nothing is drawn.
    """
    if not 0 <= index < normals.count:
        raise InvalidInput("curvature normal index out of range")
    M = normals.orbit
    coords = normals.nu_coords
    eta = coords[index]
    base = eta / float(eta @ eta)
    rng = np.random.default_rng(seed)
    for _ in range(16):
        xi = base
        if len(eta) > 1:
            h = rng.standard_normal(len(eta))
            h -= (h @ eta) / (eta @ eta) * eta
            xi = base + 0.25 * h / max(np.linalg.norm(h), 1e-12)
        pair = coords @ xi
        others = np.delete(np.abs(pair - 1.0), index)
        if others.size == 0 or np.min(others) > 1e-2:
            return M.point + M.normal_vector(xi)
    raise InvalidInput("could not find a displacement clear of the other "
                       "focal hyperplanes in 16 draws")
