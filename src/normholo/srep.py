"""Concrete isotropy representations: rotations conjugating traceless
symmetric matrices.

A representation instance holds one or more blocks; block sizes
(r_1, ..., r_m) give the carrier

    p = Sym_0(r_1) (+) ... (+) Sym_0(r_m)

embedded block-diagonally in symmetric (sum r_i)-matrices, with the
acting algebra so(r_1) (+) ... (+) so(r_m) acting by commutator.
Cross-blocks are exact zeros.  The carrier frame is fixed once per
instance: per block, off-diagonal pairs (E_ij + E_ji)/sqrt(2) in
lexicographic order followed by the orthonormal traceless-diagonal
ladder.  All coordinates in this package refer to that frame.

:func:`frame_action` reads the infinitesimal action ad(X) = [X, .]
between two frames of carrier matrices.  It is the one operator behind
the tangent images and the isotropy algebra here, the second fundamental
form of :mod:`normholo.orbit`, the transport generators B_X of
:mod:`normholo.transport` and the slice representation of
:mod:`normholo.holonomy`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidInput
from .linalg import (DEFAULT_TOLS, Tolerances, _frozen_subspace,
                     _row_norms, check_symmetric, rank_reveal)


def _block_carrier_frame(r: int, offset: int, total: int):
    frame = []
    for i in range(r):
        for j in range(i + 1, r):
            e = np.zeros((total, total))
            e[offset + i, offset + j] = e[offset + j, offset + i] = 1.0 / np.sqrt(2.0)
            frame.append(e)
    for k in range(1, r):
        e = np.zeros((total, total))
        for i in range(k):
            e[offset + i, offset + i] = 1.0
        e[offset + k, offset + k] = -float(k)
        e /= np.sqrt(k * (k + 1))
        frame.append(e)
    return frame


def _block_generators(r: int, offset: int, total: int):
    gens = []
    for i in range(r):
        for j in range(i + 1, r):
            x = np.zeros((total, total))
            x[offset + i, offset + j] = 1.0 / np.sqrt(2.0)
            x[offset + j, offset + i] = -1.0 / np.sqrt(2.0)
            gens.append(x)
    return gens


class SymmetricPairRep(NamedTuple):
    """One conjugation representation; construct via for_size or product."""

    sizes: tuple
    carrier_frame: np.ndarray   # (D, R, R)
    generators: np.ndarray      # (G, R, R)

    @classmethod
    def for_size(cls, r: int) -> "SymmetricPairRep":
        return cls.product((r,))

    @classmethod
    def product(cls, sizes) -> "SymmetricPairRep":
        sizes = tuple(int(s) for s in sizes)
        if not sizes or any(s < 2 for s in sizes):
            raise InvalidInput("block sizes must all be at least 2")
        total = sum(sizes)
        frame = []
        gens = []
        offset = 0
        for r in sizes:
            frame.extend(_block_carrier_frame(r, offset, total))
            gens.extend(_block_generators(r, offset, total))
            offset += r
        cf = np.stack(frame)
        gg = np.stack(gens)
        cf.flags.writeable = False
        gg.flags.writeable = False
        return cls(sizes=sizes, carrier_frame=cf, generators=gg)

    # -- basic shape data ---------------------------------------------------

    @property
    def total_size(self) -> int:
        return int(sum(self.sizes))

    @property
    def carrier_dim(self) -> int:
        return int(self.carrier_frame.shape[0])

    @property
    def group_dim(self) -> int:
        return int(self.generators.shape[0])

    @property
    def block_slices(self) -> tuple:
        out = []
        o = 0
        for r in self.sizes:
            out.append(slice(o, o + r))
            o += r
        return tuple(out)

    # -- coordinates --------------------------------------------------------

    def coords(self, mat: np.ndarray) -> np.ndarray:
        mat = np.asarray(mat, dtype=float)
        return np.einsum("dij,...ij->...d", self.carrier_frame, mat)

    def matrix(self, x: np.ndarray) -> np.ndarray:
        return np.einsum("...d,dij->...ij", np.asarray(x, dtype=float),
                         self.carrier_frame)

    def validate_carrier(self, mat: np.ndarray,
                         tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
        """Check membership in the carrier of a matrix or of each matrix
        of an (N, R, R) stack: symmetric to tols.sym
        (linalg.check_symmetric), then in the carrier span to the same
        relative tolerance; returns the cleaned matrices."""
        mat = np.asarray(mat, dtype=float)
        n = self.total_size
        if mat.ndim not in (2, 3) or mat.shape[-2:] != (n, n):
            raise InvalidInput(f"carrier matrices have shape {(n, n)}")
        check_symmetric(mat, tols.sym)
        recon = self.matrix(self.coords(mat))
        flat = mat.reshape(-1, n * n)
        if (_row_norms(recon.reshape(flat.shape) - flat)
                > tols.sym * (1.0 + _row_norms(flat))).any():
            raise InvalidInput(
                "matrix is not in the carrier (check per-block tracelessness "
                "and vanishing cross-blocks)")
        return recon

    # -- infinitesimal action ----------------------------------------------

    def tangent_svds(self, points: np.ndarray,
                     tols: Tolerances = DEFAULT_TOLS):
        """(v, u, s, vt, ranks): the points of an (N, R, R) stack, each
        checked and normalized (a finite nonzero point whose norm
        overflows or is under tols.rank is first divided by its largest
        entry), and one stacked SVD (rank_reveal, full vt) of their
        tangent-image maps X_g -> [X_g, v] with a rank per point.  Each
        rule runs on the whole stack at once."""
        points = np.asarray(points, dtype=float)
        n = self.total_size
        if points.ndim != 3 or points.shape[1:] != (n, n):
            raise InvalidInput(f"carrier matrices have shape {(n, n)}")
        flat = points.reshape(-1, n * n)
        with np.errstate(over="ignore"):
            nrm = _row_norms(flat)
        # negated so that a NaN norm, for which every comparison is False,
        # takes the rescaling branch (where the finiteness test drops it)
        if not (tols.rank <= nrm.min(initial=np.inf)
                and nrm.max(initial=0.0) < np.inf):
            odd = (~((tols.rank <= nrm) & (nrm < np.inf))
                   & np.isfinite(flat).all(axis=1) & flat.any(axis=1))
            peak = np.abs(flat).max(axis=1, initial=0.0)
            points = points / np.where(odd, peak, 1.0)[:, None, None]
        v = self.validate_carrier(points, tols)
        nrm = _row_norms(v.reshape(flat.shape))
        if nrm.min(initial=np.inf) < tols.rank:
            raise InvalidInput("base point must be nonzero")
        v = v / nrm[:, None, None]
        # (G, D, N): carrier coordinates of [X_g, v_p]
        images = frame_action(self.generators, self.carrier_frame, v)
        u, s, vt, ranks = rank_reveal(images.transpose(2, 1, 0), tols.rank,
                                      full=True)
        if ranks.min(initial=1) == 0:
            raise InvalidInput("base point is fixed by the whole group")
        return v, u, s, vt, ranks

    def isotropy_algebra(self, v: np.ndarray,
                         tols: Tolerances = DEFAULT_TOLS):
        """Generator-coefficient basis of the stabilizer subalgebra.

        Returns (coeff_subspace, matrices): coefficients live in R^G,
        matrices are the corresponding skew elements.  The kernel of
        tangent_svds at v, the stabilizer build_orbit keeps.
        """
        _, _, _, vt, ranks = self.tangent_svds(
            np.asarray(v, dtype=float)[None], tols)
        ker = _frozen_subspace(vt[0, ranks[0]:].T, tols.rank)
        return ker, list(np.einsum("gk,gij->kij", ker.basis, self.generators))

    # -- test support -------------------------------------------------------

    def with_frame_rotation(self, q: np.ndarray) -> "SymmetricPairRep":
        """Same representation expressed in a rotated carrier frame.

        q must be orthogonal of size (carrier_dim, carrier_dim).  Used to
        check that reported invariants do not depend on the frame.
        """
        q = np.asarray(q, dtype=float)
        d = self.carrier_dim
        if q.shape != (d, d) or np.linalg.norm(q.T @ q - np.eye(d)) > 1e-10:
            raise InvalidInput("frame rotation must be orthogonal (D, D)")
        new_frame = np.einsum("ji,jkl->ikl", q, self.carrier_frame)
        new_frame.flags.writeable = False
        return SymmetricPairRep(sizes=self.sizes, carrier_frame=new_frame,
                                generators=self.generators)


def frame_action(xs, out_frame, in_frame=None) -> np.ndarray:
    """(G, K_out, K_in) array F[g, a, b] = <out_a, [X_g, in_b]>.

    The isotropy action ad(X) = [X, .] of a stack of so(R) elements,
    read from the span of in_frame into the span of out_frame (stacks
    of carrier matrices; in_frame defaults to out_frame).  On one
    orthonormal frame each F[g] is skew for skew X_g: it is the
    constant generator B_X of frame transport along exp(tX), and on the
    normal frame of an orbit it is the slice representation of the
    stabilizer and the Nomizu map of the normal connection.  xs may be
    empty.  Leading axes in front of (G, R, R) and (K, R, R) broadcast:
    N orbits' generators and frames give an (N, G, K_out, K_in) array.
    """
    out_frame = np.asarray(out_frame, dtype=float)
    in_frame = out_frame if in_frame is None else np.asarray(in_frame, float)
    x = np.asarray(xs, dtype=float)
    r = out_frame.shape[-1]
    x = x[..., None, :, :] if x.ndim > 2 else x.reshape(-1, 1, r, r)
    fr = in_frame[..., None, :, :, :]
    images = x @ fr - fr @ x
    return np.einsum("...aij,...gbij->...gab", out_frame, images)


class CartanCurvature:
    """Curvature tensor of the ambient symmetric structure on the carrier:
    R_{A,B} C = -[[A, B], C] with pairing <R_{A,B} C, D> = <[A,B],[C,D]>.
    """

    @staticmethod
    def commutators(mats) -> np.ndarray:
        """K^2 x R^2 matrix C whose row (a, b) is the flattened [m_a, m_b],
        from one batched matrix product."""
        mats = np.asarray(mats, dtype=float)
        k, r = mats.shape[0], mats.shape[-1]
        coms = mats[:, None] @ mats[None, :]
        return (coms - coms.transpose(1, 0, 2, 3)).reshape(k * k, r * r)

    @staticmethod
    def entries(mats) -> np.ndarray:
        """4-tensor R[a, b, c, d] = <R_{m_a, m_b} m_c, m_d> over a list of
        symmetric matrices: the Gram matrix of their commutators."""
        k = len(mats)
        coms = CartanCurvature.commutators(mats)
        return (coms @ coms.T).reshape(k, k, k, k)


def random_regular_point(rep: SymmetricPairRep, seed: int) -> np.ndarray:
    """Seeded traceless diagonal with distinct eigenvalues in every block
    (gaps at least 0.05 max(1, max |d|)), normalized to unit carrier
    norm."""
    rng = np.random.default_rng(seed)
    n = rep.total_size
    for _ in range(256):
        mat = np.zeros((n, n))
        ok = True
        for sl, r in zip(rep.block_slices, rep.sizes):
            d = rng.standard_normal(r)
            d -= d.mean()
            d_sorted = np.sort(d)
            if np.min(np.diff(d_sorted)) < 0.05 * max(1.0, np.max(np.abs(d))):
                ok = False
                break
            mat[sl, sl] = np.diag(d)
        if ok:
            return mat / np.linalg.norm(mat)
    raise InvalidInput("could not sample a regular diagonal point")
