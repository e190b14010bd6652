"""Pseudospectral grid on the closed unit disk.

Fourier collocation in the angle theta crossed with Chebyshev-Lobatto
collocation in radius.  The radial nodes are the positive half of a
symmetric Lobatto grid of odd polynomial order on [-1, 1], so there is no
node at r = 0 and no coordinate-singularity special case; the negative
half is their exact mirror, so point evaluation folds both parities onto
one radial weight set (ring_scale).  A smooth function F on the disk
satisfies the reflection rule

    F(-r, theta) = F(r, theta + pi),

equivalently its Fourier mode m in theta has radial parity (-1)^m.  That
rule folds the full-interval differentiation matrices onto the positive
nodes with one sign per mode parity, which is all the machinery the polar
Laplacian

    Delta = d_rr + (1/r) d_r + (1/r^2) d_thth      (per mode m: d_thth -> -m^2)

needs.  The per-mode operators (Laplacian, Dirichlet inverse, Hodge
potential) are built eagerly here and cached, so a grid is never
modified and one instance serves every field of its shape.

The angular transform to the rfft layout and back (to_modes and
from_modes) is one product against a cached real DFT matrix each way:
on a few dozen angles an FFT call costs almost only its call overhead,
and the matrix product about half as much or less.  The polar
derivatives take no transform at all: each is one real product on the
samples (see polar_derivatives).
"""

import copy

import numpy as np

from ..errors import ConfigError

_GRID_CACHE = {}


def _cheb_lobatto_diff(x, w):
    """Collocation differentiation matrix on distinct nodes x with
    barycentric weights w.

    Barycentric form with the negative-sum trick for the diagonal; for
    Chebyshev-Lobatto nodes this is the classical spectral matrix.
    """
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    D = (w[None, :] / w[:, None]) / dx
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


def gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1], by
    Golub-Welsch: the eigenvalues of the Jacobi matrix of the Legendre
    recurrence on [-1, 1] and the squared first components of its
    eigenvectors."""
    k = np.arange(1.0, n)
    nodes, vecs = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), 1),
                                 UPLO="U")
    return 0.5 * (nodes + 1.0), vecs[0] ** 2


def _lagrange_weighted_integrals(x, w_bary):
    """integral_0^1 l_k(r) r dr for every cardinal polynomial l_k on nodes x.

    Computed by the Gauss-Legendre rule of gauss_legendre, of high enough
    order to be exact for the cardinals (degree len(x)-1 times the
    weight r).
    """
    gx, gw = gauss_legendre(x.size + 4)
    # cardinal values at the Gauss nodes, stable barycentric form
    # Gauss nodes are interior irrationals, so none hits a Lobatto node
    c = w_bary[None, :] / (gx[:, None] - x[None, :])
    L = c / c.sum(axis=1, keepdims=True)
    return L.T @ (gw * gx)


class DiskGrid:
    """Container of nodes and cached operators, every array read-only.

    Do not rebind attributes after construction; use make_grid() to get a
    shared cached instance.  members is the length of the member axis of
    the fields on this grid, None for fields without one, member_shape
    that axis as a shape, () or (M,), and sample_shape the shape of a
    scalar field's samples; the grids of one shape share every node and
    operator.
    """

    members = None
    member_shape = ()

    def __init__(self, n_theta, n_r):
        if n_theta % 2 != 0 or n_theta < 8:
            raise ConfigError(f"n_theta must be even and >= 8, got {n_theta}")
        if n_r < 8:
            raise ConfigError(f"n_r must be >= 8, got {n_r}")
        self.n_theta, self.n_r = int(n_theta), int(n_r)
        self.n_modes = n_theta // 2 + 1
        self.sample_shape = (self.n_r, self.n_theta)

        # full doubled radial grid, odd order N so no node sits at r = 0
        N = 2 * n_r - 1
        j = np.arange(N + 1)
        x_full = np.cos(j * np.pi / N)  # decreasing, 1 ... -1
        x_full[n_r:] = -x_full[n_r - 1::-1]  # exact mirrors, x_{N-j} = -x_j
        self.x_full = x_full
        # barycentric weights for Lobatto nodes: alternating signs, halved ends
        wb = np.where(j % 2, -1.0, 1.0)
        wb[[0, -1]] *= 0.5
        self.bary_weights = wb

        # positive nodes in increasing order; pos_full[i] indexes x_full
        self.pos_full = np.arange(n_r - 1, -1, -1)
        self.neg_full = N - self.pos_full
        self.r = x_full[self.pos_full]
        self.theta = 2.0 * np.pi * np.arange(n_theta) / n_theta

        # meshes (radius-major layout: values[i_r, j_theta])
        self.rr = self.r[:, None] * np.ones((1, n_theta))
        self.tt = np.ones((n_r, 1)) * self.theta[None, :]
        # node positions, x then y, in the layout of a VectorField
        self.xy = np.stack([self.rr * np.cos(self.tt), self.rr * np.sin(self.tt)])
        self.xx, self.yy = self.xy
        self.cos_t = np.cos(self.theta)[None, :]
        self.sin_t = np.sin(self.theta)[None, :]
        # (d_x, d_y) = polar_to_xy[:, 0] d_r + polar_to_xy[:, 1] d_theta
        c, s, inv_r = np.cos(self.tt), np.sin(self.tt), 1.0 / self.rr
        self.polar_to_xy = np.array([[c, -s * inv_r], [s, c * inv_r]])

        D_full = _cheb_lobatto_diff(x_full, wb)
        D2_full = D_full @ D_full
        pp = np.ix_(self.pos_full, self.pos_full)
        pn = np.ix_(self.pos_full, self.neg_full)
        Dr = {+1: D_full[pp] + D_full[pn], -1: D_full[pp] - D_full[pn]}
        Drr = {+1: D2_full[pp] + D2_full[pn], -1: D2_full[pp] - D2_full[pn]}
        # d_r on the samples: positive-node rows, [D_pp; D_pn] (2 n_r x n_r)
        self._dr_rows = np.vstack([D_full[pp], D_full[pn]])

        # radial quadrature weights for integral_0^1 g(r) r dr, g given on
        # the positive nodes with the doubled-grid reflection implied
        q = _lagrange_weighted_integrals(x_full, wb)
        self.weights_r = q[self.pos_full] + q[self.neg_full]
        if not np.all(self.weights_r > 0):
            raise ConfigError("nonpositive radial quadrature weight; grid too coarse")
        total = self.weights_r.sum()
        if abs(total - 0.5) > 1e-12:
            raise ConfigError(f"radial quadrature inconsistent: sum {total!r}")

        # angular wavenumbers for the real FFT layout
        self.modes = np.arange(self.n_modes)
        # real DFT tables: values @ _dft is the (Re, Im) pair per mode,
        # pairs @ _idft the irfft (weights 1/n, 2/n, ..., 1/n; Im of mode
        # 0 and Nyquist ignored).  Angles from the exact integer j m mod
        # n: from theta * m the tables would be off by up to about 4e-14
        angle = (2.0 * np.pi / n_theta) * (
            np.outer(np.arange(n_theta), self.modes) % n_theta)
        dft = np.stack([np.cos(angle), -np.sin(angle)], axis=-1)
        dft[:, [0, -1], 1] = 0.0
        self._dft = dft.reshape(n_theta, 2 * self.n_modes)
        weight = np.full(self.n_modes, 2.0 / n_theta)
        weight[[0, -1]] = 1.0 / n_theta
        self._idft = (dft * weight[:, None]).transpose(1, 2, 0).reshape(
            2 * self.n_modes, n_theta)
        ik = 1j * self.modes.astype(float)
        ik[-1] = 0.0  # Nyquist derivative vanishes at the sample points
        self.ik = ik
        # d_theta on the samples, values @ dtheta: ik on every unit vector
        self.dtheta = (self._dft.view(complex) * ik).view(float) @ self._idft

        # per-mode polar Laplacian and cached solve operators
        r = self.r
        inv_r = 1.0 / r
        lap = np.empty((self.n_modes, n_r, n_r))
        dir_inv = np.empty_like(lap)
        hodge = np.empty((self.n_modes, n_r, 2 * n_r))
        for m in range(self.n_modes):
            p = +1 if m % 2 == 0 else -1
            Lm = Drr[p] + inv_r[:, None] * Dr[p] - (m * m) * np.diag(inv_r ** 2)
            lap[m] = Lm
            A = Lm.copy()
            A[-1, :] = 0.0
            A[-1, -1] = 1.0
            dir_inv[m] = np.linalg.inv(A)
            # hodge_inv[m] takes (u_r, i u_theta), parity opposite to m's,
            # to g: lap g = (1/r) d_r (r u_r) + (m/r) i u_theta inside
            # (ik is 0 at Nyquist) and d_r g = u_r on the circle
            B = Lm.copy()
            B[-1, :] = Dr[p][-1, :]
            div = np.hstack([Dr[-p] + np.diag(inv_r),
                             np.diag(self.ik[m].imag * inv_r)])
            div[-1] = 0.0
            div[-1, n_r - 1] = 1.0
            if m == 0:
                # bordered: zero mean, and a multiplier takes the data's
                # roundoff incompatibility
                B = np.pad(B, ((0, 1), (0, 1)))
                B[: n_r - 1, n_r] = 1.0
                B[n_r, :n_r] = self.weights_r
                div = np.pad(div, ((0, 1), (0, 0)))
            hodge[m] = np.linalg.solve(B, div)[:n_r]
        self.lap_stack = lap
        self.dirichlet_inv = dir_inv
        self.hodge_inv = hodge

        # point evaluation scales the rings' (Re, Im) pairs per mode by 1
        # for even m and 1/r for odd m, the Im sign flipped
        scale = np.where(self.modes % 2, inv_r[:, None], 1.0)
        self.ring_scale = (scale[..., None] * [1.0, -1.0]).reshape(n_r, -1)

        # harmonic radial profiles r^m per mode
        self.harmonic_profiles = r[None, :] ** self.modes[:, None]

        # every field of this shape reads these operators
        for value in vars(self).values():
            for a in value.values() if isinstance(value, dict) else (value,):
                if isinstance(a, np.ndarray):
                    a.setflags(write=False)

    def with_members(self, members):
        """The grid of this shape for fields of `members` members (None:
        without a member axis)."""
        return make_grid(self.n_theta, self.n_r, members)

    # ---- transforms -------------------------------------------------

    def to_modes(self, values):
        """Real samples (..., n_theta) -> rfft coefficients (..., n_modes)."""
        return (values @ self._dft).view(complex)

    def from_modes(self, coeffs):
        """rfft coefficients (..., n_modes) -> real samples (..., n_theta)."""
        pairs = np.ascontiguousarray(coeffs, dtype=complex).view(float)
        return pairs @ self._idft

    def polar_derivatives(self, values):
        """(d_r, d_theta) of samples shaped (..., n_r, n_theta), stacked.

        One real product each, on the samples.  d_r takes the doubled
        grid's rows at the positive nodes: the positive-node columns act
        on the samples, the negative-node columns on the samples half a
        turn round, by F(-r, theta) = F(r, theta + pi); per mode m this
        is the folded matrix D_pp + (-1)^m D_pn.  d_theta is the Fourier
        derivative matrix, zero on the Nyquist mode.
        """
        lead, halves = values.shape[:-2], (self.n_r, 2, self.n_theta // 2)
        # (..., positive or negative columns, n_r, half turn, angle in it)
        S = (self._dr_rows @ values).reshape(lead + (2,) + halves)
        out = np.empty((2,) + values.shape)
        np.add(S[..., 0, :, :, :], S[..., 1, :, ::-1, :],
               out=out[0].reshape(lead + halves))
        np.matmul(values, self.dtheta, out=out[1])
        return out

    # ---- quadrature -------------------------------------------------

    def integrate(self, values):
        """integral over the disk (area element r dr dtheta) of samples
        (..., n_r, n_theta), one per field: its row sums meet weights_r
        in a one-row product of its own, so a member keeps its lone bits."""
        rows = values.sum(axis=-1)[..., None, :]
        return (2.0 * np.pi / self.n_theta) * (rows @ self.weights_r[:, None])[..., 0, 0]


def make_grid(n_theta, n_r, members=None):
    """Shared cached grid; construction happens at most once per shape,
    and a grid with members shares the operators of its shape's grid."""
    key = (int(n_theta), int(n_r), members)
    grid = _GRID_CACHE.get(key)
    if grid is None:
        if members is None:
            grid = DiskGrid(*key[:2])
        else:
            grid = copy.copy(make_grid(*key[:2]))
            grid.members = int(members)
            grid.member_shape = (grid.members,)
            grid.sample_shape = grid.member_shape + grid.sample_shape
        _GRID_CACHE[key] = grid
    return grid
