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

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput
from .linalg import DEFAULT_TOLS, Tolerances, bracket, gram_kernel


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


@dataclass(frozen=True)
class SymmetricPairRep:
    """One conjugation representation; construct via for_size or product."""

    sizes: tuple
    carrier_frame: np.ndarray = field(repr=False)  # (D, R, R)
    generators: np.ndarray = field(repr=False)     # (G, R, R)

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
        x = np.asarray(x, dtype=float).ravel()
        return np.einsum("d,dij->ij", x, self.carrier_frame)

    def validate_carrier(self, mat: np.ndarray,
                         tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
        """Check membership in the carrier; returns the cleaned matrix."""
        mat = np.asarray(mat, dtype=float)
        n = self.total_size
        if mat.shape != (n, n):
            raise InvalidInput(f"carrier matrices have shape {(n, n)}")
        if not np.all(np.isfinite(mat)):
            raise InvalidInput("carrier matrix has non-finite entries")
        scale = 1.0 + float(np.linalg.norm(mat))
        if float(np.linalg.norm(mat - mat.T)) > tols.sym * scale:
            raise InvalidInput("carrier matrices must be symmetric")
        recon = self.matrix(self.coords(mat))
        if float(np.linalg.norm(recon - mat)) > tols.sym * scale:
            raise InvalidInput(
                "matrix is not in the carrier (check per-block tracelessness "
                "and vanishing cross-blocks)")
        return recon

    # -- infinitesimal action ----------------------------------------------

    def isotropy_algebra(self, v: np.ndarray,
                         tols: Tolerances = DEFAULT_TOLS):
        """Generator-coefficient basis of the stabilizer subalgebra.

        Returns (coeff_subspace, matrices): coefficients live in R^G,
        matrices are the corresponding skew elements.
        """
        v = self.validate_carrier(v, tols)
        # (G, D, 1): carrier coordinates of [X_g, v]
        images = frame_action(self.generators, self.carrier_frame, v[None])
        ker = gram_kernel(images[..., 0].T, tols)
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
    empty.
    """
    out_frame = np.asarray(out_frame, dtype=float)
    in_frame = out_frame if in_frame is None else np.asarray(in_frame, float)
    x = np.asarray(xs, dtype=float).reshape(-1, 1, *out_frame.shape[1:])
    images = x @ in_frame - in_frame @ x
    return np.einsum("aij,gbij->gab", out_frame, images)


class CartanCurvature:
    """Curvature tensor of the ambient symmetric structure on the carrier:
    R_{A,B} C = -[[A, B], C] with pairing <R_{A,B} C, D> = <[A,B],[C,D]>.
    """

    @staticmethod
    def evaluate(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        return -bracket(bracket(a, b), c)

    @staticmethod
    def pairing(a, b, c, d) -> float:
        return float(np.sum(CartanCurvature.evaluate(a, b, c) * d))

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
