"""Self-coupled packet/field evolution on a periodic spectral grid.

The wave function evolves under H = |p - q A|^2 / 2M with the Coulomb-gauge
vector potential slaved quasi-statically to its own probability current:
A_hat(k) = j_perp_hat(k) / (eps0 c^2 k^2), k != 0.  One step is a split
step: exact spectral half kinetic step, full step of the A-dependent factor
with the field refreshed from the midpoint psi, half kinetic step again.
The mixed term -(q/2M)(A.p + p.A) = (i q hbar / 2M) G is applied through a
short unitarized polynomial of the anti-Hermitian generator G = A.grad +
div(A .), keeping per-step norm drift at roundoff, and the A^2 term after
it as a pure phase; G has one implementation, _mixed_generator, which the
records' H psi shares.  The step is not a symmetric Strang step, for two
reasons: the field A[psi_mid] is explicit (the mixed term changes j after A
is taken), and the field factor is the Lie-Trotter pair P.M of the A^2
phase and the mixed term, which do not commute.  Measured for the electron
(n=32, box 8b, b = 3e-11 m, beta = 0.1, dt halved from 2e-19 s), the order
of psi's self-convergence is 2.00 at z = -1 but 1.55, 1.24, 1.08 at z =
-10, and the step is not time-reversible: the error of a run forward and
back halves with dt.

One layout rule holds for spectra: psi lives on the full fftn spectrum,
and every real field (the current, A, dj/dt and E_perp) on the rfftn half
spectrum (last axis n/2 + 1), the transversality diagnostic included; 1/k^2
and the field kernel exist on the half spectrum only.  A comes from one
field solve of real-space psi, _Workspace.field_hat (its half spectrum,
from the current) or _Workspace.field (A itself), which init_grid,
solve_vector_potential, the step and the records all call.  The step
keeps the grad psi_mid of its field solve for the first application of
the mixed generator, which then differentiates only A_i psi_mid.  Every
first derivative is _Workspace.deriv: one BLAS product with the real,
antisymmetric Fourier differentiation matrix D (the operator i k_grad,
Nyquist mode zeroed) on the float view of a complex field.  At n <= 128 it
runs faster than a 1-D transform pair; its cost per point grows as n, not
log n, so from n = 256 it is expected to be the slower of the two.

The work of a step and a record runs as tasks of one module-level thread
pool (_Workspace.map, sized like the 3-D transforms by _fft_workers);
numpy, pocketfft and BLAS release the GIL.  Pointwise passes run in slabs,
one slice of the leading grid axis per worker (_Workspace.slabs): the half
kinetic factors, the current, the transverse projection and the field
kernel, the axis-order dot products such as A.A and A.grad phi, the buffer
A_i phi of the mixed generator, the mixed term's psi + y1 + y2/2
combination, the A^2 phase, and the pointwise terms of H psi.  The y and z
derivatives run in the same slabs, the x derivatives in slabs across y;
dj/dt runs one task per axis.  BLAS itself runs on one thread inside
evolve, init_grid, solve_vector_potential, step and diagnostics
(_one_blas_thread), which put the caller's count back on return.  A
derivative writes out of place, through scratch that the calling thread
allocated where it must act in place.  The mixed generator adds its
divergence one axis at a time through one buffer of A_i phi, its
derivatives going through one chunk per slab of a quarter of the slab's
planes, which keeps the memory peaks of a step and a record low.  A task
allocates no array of its own (numpy's mixed real-complex multiplies still
take iteration buffers).  Every element sees the operations of one
whole-array pass in the same order, and sums over axes run in axis order 0,
1, 2, so psi, A and every record are bit-identical at any thread count.

Between records, evolve fuses the trailing half kinetic factor of one step
with the leading one of the next ("first same as last", FSAL), which is
exact for any split and saves one inverse and one forward transform of
psi per step; with coupling off, psi then stays in Fourier space from one
record to the next.  At every record the chain restarts from real-space
psi, so a run resumed from a snapshot taken at a record is bit-identical to
the uninterrupted run; the step after a record starts from the spectrum of
psi that the record computed.

Monitored invariants: norm, the conserved energy in the form
kinetic - (1/2) int j.A + eps0 int E_perp^2 (+ the d^2/dt^2 int A^2
correction), total momentum (matter + field), and a power-balance residual
standing in for the Poynting surface flux, which vanishes identically on a
torus.  In n^3-equivalents of 3-D transforms (a half-size real transform
counts 1/2) a fused coupled step costs 5, the first step after a record 5
too, a record 8 and init_grid 3; they take 12, 12, 9 and 3 derivative
products of a whole field.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import json
import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .errors import ConfigError, GridMismatchError, TimestepTooLargeError
from .scales import CONST, ParticleSpec
from .wavepacket import GaussianPacket

SNAPSHOT_VERSION = 1

# Largest admitted bound on the norm of the mixed-term generator per step.
# The polynomial I + Y + Y^2/2 loses norm at O(|Y|^4 / 4), about 2.5e-9 per
# step at this bound; the acceptance runs sit near 5e-5.
MIXED_GENERATOR_LIMIT = 1e-2

# Peak memory per grid point of init_grid plus a record-every-step evolve:
# 362 B measured above the import baseline at n = 128 (22.6 complex n^3
# arrays; 385 B at n = 64), kept at 32 arrays as headroom for FFT scratch.
GRID_BYTES_PER_POINT = 32 * 16


def _physical_memory() -> int:
    """Physical memory in bytes; 0 where sysconf cannot tell."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return 0


def _fft_workers() -> int:
    """Thread count for the 3-D FFTs and the size of the task pool:
    SELFFIELD_THREADS, else the core count capped at 8."""
    env = os.environ.get("SELFFIELD_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError("SELFFIELD_THREADS",
                              f"expected an integer, got {env!r}") from None
    return min(os.cpu_count() or 1, 8)


@dataclass(frozen=True)
class GridSpec:
    """Discretization and coupling switches for one evolution run."""

    n: int
    box: float
    dt: float
    particle: ParticleSpec
    coupling: bool = True
    include_diagonal_na: bool = False

    def __post_init__(self):
        if self.n < 32 or self.n > 512 or (self.n & (self.n - 1)) != 0:
            raise ValueError("n must be a power of two in {32 ... 512}")
        need, have = GRID_BYTES_PER_POINT * self.n**3, _physical_memory()
        if 0 < have < need:
            raise ValueError(f"n = {self.n} needs about {need / 2**30:.1f} GiB, more "
                             f"than the {have / 2**30:.1f} GiB of physical memory")
        if not 0.0 < self.box < math.inf:
            raise ValueError("box edge must be positive and finite")
        if not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")

    @property
    def dx(self) -> float:
        return self.box / self.n


@dataclass
class GridState:
    """Snapshot of the evolving system: psi on n^3, A on 3 x n^3, time."""

    psi: np.ndarray
    a_field: np.ndarray
    t: float


def _axis_arrays(values):
    """One 1-D array per axis, shaped to broadcast along that axis."""
    n = values.size
    return (values.reshape(n, 1, 1), values.reshape(1, n, 1),
            values.reshape(1, 1, n))


def _cis(theta, out=None):
    """cos(theta) + i sin(theta) of a real array, written into the real and
    imaginary views of one complex buffer (out, else a new one): exp(1j
    theta) without a complex exponential."""
    if out is None:
        out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _fourier_derivative_matrix(n: int, box: float) -> np.ndarray:
    """The n x n Fourier differentiation matrix of the periodic grid,
    D[j, m] = d((j - m) mod n) with d(p) = (pi/box) (-1)^p cot(pi p/n) for
    0 < p < n/2, d(n - p) = -d(p) and d(0) = d(n/2) = 0 (Trefethen, Spectral
    Methods in MATLAB, ch. 3): the operator i k_grad with the Nyquist mode
    zeroed, exactly antisymmetric, circulant and odd under reflection."""
    p = np.arange(1, n // 2)
    d = np.zeros(n)
    d[p] = (math.pi / box) * np.where(p % 2, -1.0, 1.0) / np.tan(math.pi * p / n)
    d[n - p] = -d[p]
    j = np.arange(n)
    return d[(j[:, None] - j) % n]


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy loaded,
    found by its exported get/set-num-threads symbols among the shared
    objects in /proc/self/maps; None where none is found."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except (OSError, AttributeError):
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.restype, get.argtypes = ctypes.c_int, []
                    set_.restype, set_.argtypes = None, [ctypes.c_int]
                    return get, set_
    return None


_BLAS_LOCK = threading.Lock()
_blas_pin = {"depth": 0, "caller": 0}


def _one_blas_thread(fn):
    """fn with the OpenBLAS that numpy loaded on one thread: the derivative
    products run inside pool tasks, where BLAS threads of their own would
    compete with the pool.  The outermost call in the process saves the
    caller's count and the last one to return puts it back; where no
    OpenBLAS is found nothing is pinned."""
    @functools.wraps(fn)
    def pinned(*args, **kwargs):
        api = _openblas_threads()
        if api is None:
            return fn(*args, **kwargs)
        get, set_ = api
        with _BLAS_LOCK:
            if _blas_pin["depth"] == 0:
                _blas_pin["caller"] = get()
                set_(1)
            _blas_pin["depth"] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            with _BLAS_LOCK:
                _blas_pin["depth"] -= 1
                if _blas_pin["depth"] == 0:
                    set_(_blas_pin["caller"])
    return pinned


_POOLS: dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def _task_pool(size: int) -> ThreadPoolExecutor:
    """The module's thread pool of size workers, created on first use (one
    per distinct _fft_workers value, so in practice one)."""
    with _POOLS_LOCK:
        if size not in _POOLS:
            _POOLS[size] = ThreadPoolExecutor(max_workers=size,
                                              thread_name_prefix="selffield")
        return _POOLS[size]


class _Workspace:
    """Precomputed spectral machinery for one GridSpec.

    Wavenumbers and coordinates are kept as 1-D arrays that broadcast along
    their axis; the full (3, n, n, n) position grid r is built on demand.
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        n, dx = spec.n, spec.dx
        self.dv = dx**3
        k1 = 2.0 * math.pi * sfft.fftfreq(n, d=dx)
        kx, ky, kz = _axis_arrays(k1)
        nyq = n // 2
        # Real fields live on the rfftn half spectrum (last axis n/2 + 1, its
        # k_z = n/2 plane labelled -n/2 as fftfreq has it).  The field kernel
        # excludes k = 0 (no uniform gauge field on the torus) and the
        # Nyquist planes, where the grid projector cannot preserve the
        # Hermitian pairing of a real field.
        self.k_half = (kx, ky, kz[..., :nyq + 1])
        k2_half = sum(k**2 for k in self.k_half)
        self.inv_k2 = np.zeros_like(k2_half)
        nz = k2_half > 0.0
        self.inv_k2[nz] = 1.0 / k2_half[nz]
        for axis in range(3):
            idx = [slice(None)] * 3
            idx[axis] = nyq
            self.inv_k2[tuple(idx)] = 0.0
        self.field_kernel = self.inv_k2 / (CONST.eps0 * CONST.c**2)
        # First-derivative wavenumbers zero the Nyquist planes (the odd
        # derivative of the sawtooth mode is sign-ambiguous; zeroing keeps
        # gradients of real fields real and the mixed generator skew).  The
        # derivative itself is the real differentiation matrix of the same
        # operator, and along z its kron with I_2, which acts on the
        # interleaved real and imaginary parts of a row.
        kg1 = k1.copy()
        kg1[nyq] = 0.0
        self.k_grad_axes = _axis_arrays(kg1)
        self.k_grad_max = math.sqrt(3.0) * float(np.abs(kg1).max())
        self.d_matrix = _fourier_derivative_matrix(n, spec.box)
        self.d_kron = np.kron(self.d_matrix.T, np.eye(2))
        self.x1 = np.arange(n) * dx
        self.centre = 0.5 * spec.box
        mass = spec.particle.mass
        k2 = kx**2 + ky**2 + kz**2    # psi's full spectrum
        self.kin_omega = CONST.hbar * k2 / (2.0 * mass)  # rad/s per mode
        self.charge = spec.particle.charge
        self.workers = _fft_workers()

    @property
    def r(self) -> np.ndarray:
        """Position grid (3, n, n, n)."""
        return np.array(np.broadcast_arrays(*_axis_arrays(self.x1)))

    @functools.cached_property
    def half_kin(self) -> np.ndarray:
        """exp(-i hbar k^2 dt / 4M), the half-step kinetic factor (0 - x,
        not -x, keeps the +0.0 sine at k = 0 that exp(-1j x) gives)."""
        return _cis(0.0 - self.kin_omega * (0.5 * self.spec.dt))

    # fft helpers -------------------------------------------------------
    def fftn(self, a, overwrite=False):
        return sfft.fftn(a, axes=(-3, -2, -1), workers=self.workers,
                         overwrite_x=overwrite)

    def ifftn(self, a, overwrite=False):
        return sfft.ifftn(a, axes=(-3, -2, -1), workers=self.workers,
                          overwrite_x=overwrite)

    def rfftn(self, a):
        """Half spectrum (last axis n/2 + 1) of a real field."""
        return sfft.rfftn(a, axes=(-3, -2, -1), workers=self.workers)

    def irfftn(self, a_hat):
        """Real field from its half spectrum; a_hat is left as it was."""
        n = self.spec.n
        return sfft.irfftn(a_hat, s=(n, n, n), axes=(-3, -2, -1),
                           workers=self.workers, overwrite_x=False)

    def half_sum(self, x) -> float:
        """Full-spectrum sum of a quantity even under k -> -k (such as
        |f_hat|^2 of a real f) from its rfftn half: interior k_z planes
        count twice, the k_z = 0 and Nyquist planes once."""
        return 2.0 * float(np.sum(x)) - float(np.sum(x[..., 0])) \
            - float(np.sum(x[..., -1]))

    def integral(self, values) -> float:
        """sum over grid times the volume element."""
        return float(np.sum(values)) * self.dv

    def map(self, fn, items):
        """fn over items as tasks of the module's thread pool, results in
        item order as they land; inline with one worker.  A task writes only
        into arrays its caller allocated, and runs in a copy of the caller's
        context, so the caller's np.errstate holds in it too."""
        if self.workers == 1:
            return map(fn, items)
        pool = _task_pool(self.workers)
        futures = [pool.submit(contextvars.copy_context().run, fn, item)
                   for item in items]
        return (future.result() for future in futures)

    def slab_rows(self):
        """The slices of the leading grid axis that slabs hands out, one per
        worker (slice(None) with one worker)."""
        if self.workers == 1:
            return [slice(None)]
        n, k = self.spec.n, min(self.workers, self.spec.n)
        return [slice(n * i // k, n * (i + 1) // k) for i in range(k)]

    def slabs(self, fn):
        """fn(sl) for each slice sl of slab_rows, as tasks of the module's
        thread pool (inline with one worker).  fn writes only into its rows
        of arrays the calling thread allocated, so every element sees the
        operations of one whole-array pass."""
        for _ in self.map(fn, self.slab_rows()):
            pass

    def imul(self, x, y):
        """x *= y in place, in slabs; y is a grid array and x one or a
        stack of them."""
        def slab(sl):
            rows = (..., sl, slice(None), slice(None))
            np.multiply(x[rows], y[rows], out=x[rows])

        self.slabs(slab)
        return x

    def dot(self, u, v):
        """sum_i u_i v_i of two 3-component stacks, summed in axis order, in
        slabs."""
        out = np.empty(u.shape[1:], dtype=np.result_type(u, v))
        prod = np.empty_like(out)

        def slab(sl):
            o, p = out[sl], prod[sl]
            np.multiply(u[0, sl], v[0, sl], out=o)
            for i in (1, 2):
                o += np.multiply(u[i, sl], v[i, sl], out=p)

        self.slabs(slab)
        return out

    # physics building blocks ------------------------------------------
    def deriv(self, f, axis, out):
        """Spectral d/dx_axis of a complex field, a stack of them, a slab or
        a plane of one, into out (never f itself), as one BLAS product with
        the differentiation matrix D on their float views: along x, D times
        the (x, rest) matrix of each field; along y, D times each x-plane;
        along z, the interleaved real and imaginary rows times
        kron(D^T, I_2).  How f is cut into slabs moves no bit of an output
        element (the thread-count tests hold the BLAS build to that).  The
        last axis of f and out must be whole and contiguous, and along x and
        z their rows must merge.  It runs on the calling thread (inside pool
        tasks), with BLAS on one thread."""
        fv, ov = f.view(float), out.view(float)
        if axis == 0:
            rows = fv.shape[:-2] + (-1,)
            np.matmul(self.d_matrix, fv.reshape(rows, copy=False),
                      out=ov.reshape(rows, copy=False))
        elif axis == 1:
            np.matmul(self.d_matrix, fv, out=ov)
        else:
            rows = (-1, fv.shape[-1])
            np.matmul(fv.reshape(rows, copy=False), self.d_kron,
                      out=ov.reshape(rows, copy=False))
        return out

    def grad(self, f, out=None):
        """Spectral gradient of a complex field, a (3, n, n, n) stack (into
        out if given), in one pass of slabs: the y and z derivatives of the
        slab's rows and the x derivative of its columns across y (f is only
        read)."""
        f = np.ascontiguousarray(f, dtype=complex)
        if out is None:
            out = np.empty((3,) + f.shape, dtype=complex)

        def slab(sl):
            self.deriv(f[:, sl], 0, out[0][:, sl])
            for axis in (1, 2):
                self.deriv(f[sl], axis, out[axis, sl])

        self.slabs(slab)
        return out

    def current(self, psi, grad):
        """Canonical probability current of the charge,
        (q hbar / M) Im(psi* grad psi), in slabs."""
        scale = self.charge * CONST.hbar / self.spec.particle.mass
        conj_psi, prod = np.empty_like(psi), np.empty_like(psi)
        j = np.empty(grad.shape, dtype=float)

        def slab(sl):
            c, p, j_rows = np.conj(psi[sl], out=conj_psi[sl]), prod[sl], j[:, sl]
            for i in range(3):
                j_rows[i] = np.multiply(c, grad[i, sl], out=p).imag
            np.multiply(j_rows, scale, out=j_rows)

        self.slabs(slab)
        return j

    def project_transverse(self, vec_hat):
        """Remove the longitudinal part of an rfftn half spectrum in one pass,
        in place: v - k (k.v)/k^2, k = 0 untouched, in slabs (1/k^2 vanishes
        on the Nyquist planes, so the sign convention of k there does not
        enter)."""
        kx, ky, kz = self.k_half
        k_dot, prod = np.empty_like(vec_hat[0]), np.empty_like(vec_hat[0])

        def slab(sl):
            kd, p, v = k_dot[sl], prod[sl], vec_hat[:, sl]
            k_rows = (kx[sl], ky, kz)
            np.multiply(k_rows[0], v[0], out=kd)
            kd += np.multiply(k_rows[1], v[1], out=p)
            kd += np.multiply(k_rows[2], v[2], out=p)
            kd *= self.inv_k2[sl]
            for v_i, k in zip(v, k_rows):
                v_i -= np.multiply(k, kd, out=p)

        self.slabs(slab)
        return vec_hat

    def vector_potential_hat(self, j_hat):
        """A_hat = P_perp j_hat / (eps0 c^2 k^2) of an rfftn half spectrum,
        in j_hat's memory; the k = 0 mode is zero."""
        return self.imul(self.project_transverse(j_hat), self.field_kernel)

    def field_hat(self, psi, j, a_prev=None):
        """The field solve of real-space psi with canonical current j: the
        rfftn half spectrum of the field that the source current slaves.  j
        becomes the source current in place: the diagonal nA piece
        -(q^2/M) |psi|^2 a_prev is subtracted when the spec includes it and
        a_prev is given."""
        if self.spec.include_diagonal_na and a_prev is not None:
            density = (self.charge**2 / self.spec.particle.mass) * np.abs(psi) ** 2
            for j_i, a_i in zip(j, a_prev):
                j_i -= density * a_i
        return self.vector_potential_hat(self.rfftn(j))

    def field(self, psi, a_prev=None):
        """The slaved field A of real-space psi, (3, n, n, n)."""
        return self.irfftn(self.field_hat(psi, self.current(psi, self.grad(psi)),
                                          a_prev))


def _packet_on_grid(ws: _Workspace, packet: GaussianPacket):
    """Gaussian envelope times plane wave, sampled about the box centre."""
    rel = ws.r - ws.centre
    r2 = np.sum(rel**2, axis=0)
    envelope = np.exp(-r2 / (8.0 * packet.b**2))
    phase = np.tensordot(packet.momentum / CONST.hbar, rel, axes=(0, 0))
    psi = envelope * _cis(phase)
    norm = math.sqrt(ws.integral(np.abs(psi) ** 2))
    return psi / norm


@_one_blas_thread
def init_grid(spec: GridSpec, packet: GaussianPacket) -> GridState:
    """Initial condition: Gaussian envelope times plane wave, slaved field.

    Raises GridMismatchError naming the violated inequality if the packet
    does not fit (b <= box/8) or is under-resolved (b >= 4 box/n).
    """
    if packet.b < 4.0 * spec.dx:
        raise GridMismatchError(
            f"resolution violated: b = {packet.b:.3e} m < 4 box/n = {4.0 * spec.dx:.3e} m")
    if packet.b > spec.box / 8.0:
        raise GridMismatchError(
            f"fit violated: b = {packet.b:.3e} m > box/8 = {spec.box / 8.0:.3e} m")
    if packet.particle != spec.particle:
        raise ValueError("packet and grid must carry the same particle")
    ws = _Workspace(spec)
    psi = _packet_on_grid(ws, packet)
    return GridState(psi=psi, a_field=ws.field(psi), t=0.0)


@_one_blas_thread
def solve_vector_potential(state: GridState, spec: GridSpec) -> np.ndarray:
    """Recompute the quasi-static Coulomb-gauge field from psi.

    Returns the updated a_field array (3, n, n, n); transverse to roundoff,
    with the k = 0 (uniform) mode set to zero.
    """
    return _Workspace(spec).field(state.psi, a_prev=state.a_field)


def transversality_residual(a_field: np.ndarray, spec: GridSpec) -> float:
    """Divergence residual max_k |k . a_hat| / max_k (|k| |a_hat|).

    Taken over the rfftn half spectrum, which holds every mode of the real
    field up to conjugation, except that on the x and y Nyquist planes
    (where a solved field has no content) it reads k = -n/2 only, not also
    the other sign of that ambiguous wavenumber.  Normalized by the global
    field scale; a per-mode ratio would be dominated by roundoff at modes
    whose amplitude is at the noise floor.
    """
    ws = _Workspace(spec)
    a_hat = ws.rfftn(a_field)
    kx, ky, kz = ws.k_half
    k_dot = np.abs(kx * a_hat[0] + ky * a_hat[1] + kz * a_hat[2])
    mag = np.sqrt(kx**2 + ky**2 + kz**2) * np.sqrt(np.sum(np.abs(a_hat) ** 2, axis=0))
    scale = float(mag.max())
    if scale == 0.0:
        return 0.0
    return float(k_dot.max()) / scale


def _check_timestep(spec: GridSpec):
    guard = spec.dt * CONST.hbar * (math.pi * spec.n / spec.box) ** 2 / (
        2.0 * spec.particle.mass)
    if guard > 0.8 * math.pi:
        raise TimestepTooLargeError(
            f"dt = {spec.dt:.3e} s: spectral phase per step {guard:.3f} rad "
            f"exceeds {0.8 * math.pi:.3f}")


def _mixed_generator(ws: _Workspace, a_field, phi, grad_phi):
    """G phi = A.grad phi + div(A phi), the anti-Hermitian generator of the
    mixed term -(q/2M)(A.p + p.A) = (i q hbar / 2M) G, for a real field A;
    grad_phi is grad phi.

    A.grad phi comes from _Workspace.dot, and div(A phi) is added to it in
    axis order 0, 1, 2 through one buffer of A_i phi.  Its derivatives go
    through one stack of chunks that the calling thread allocated, one
    chunk per slab of a quarter of its planes (at least one): planes across
    y in slabs of y for the x term, x-planes in slabs of rows for the y and
    z terms."""
    n = ws.spec.n
    out = ws.dot(a_field, grad_phi)
    buf = np.empty_like(phi)
    rows = ws.slab_rows()
    width = max(1, n // (4 * len(rows)))
    chunks = np.empty((len(rows), width, n, n), dtype=complex)

    def rows_x(sl):
        np.multiply(a_field[0, sl], phi[sl], out=buf[sl])

    def cols_x(i):
        ys = range(n)[rows[i]]
        for y in ys[::width]:
            cut = slice(y, min(y + width, ys.stop))
            f = buf[:, cut]
            out[:, cut] += ws.deriv(f, 0, chunks[i, :f.shape[1]].reshape(f.shape))

    def rows_yz(i):
        sl = rows[i]
        for axis in (1, 2):
            b = np.multiply(a_field[axis, sl], phi[sl], out=buf[sl])
            for x in range(0, len(b), width):
                f = b[x:x + width]
                out[sl][x:x + width] += ws.deriv(f, axis, chunks[i, :len(f)])

    ws.slabs(rows_x)
    for fn in (cols_x, rows_yz):
        list(ws.map(fn, range(len(rows))))
    return out


def _apply_mixed(ws: _Workspace, psi, a_field, tau, grad):
    """Propagate for time tau under the mixed term -(q/2M)(A.p + p.A).

    The exact exponential is exp(Y) with the anti-Hermitian generator
    Y = (tau q / 2M) G, G = A.grad + div(A .) (_mixed_generator); it is
    applied as the 2nd-order polynomial I + Y + Y^2/2, unitary to O(|Y|^3).
    With |Y| ~ 1e-4 per step this keeps norm drift far below 1e-12.

    grad is grad psi, which the step's field solve formed, so the first
    application of G differentiates only A_i psi per axis; grad's memory
    then takes grad y1 for the second.  The result is y1's memory, combined
    as (y1 + psi) + y2 / 2.
    """
    coeff = tau * ws.charge / (2.0 * ws.spec.particle.mass)
    y1 = _mixed_generator(ws, a_field, psi, grad)
    ws.slabs(lambda sl: np.multiply(y1[sl], coeff, out=y1[sl]))
    y2 = _mixed_generator(ws, a_field, y1, ws.grad(y1, out=grad))

    def combine(sl):
        half = y2[sl]
        half *= coeff
        half *= 0.5
        out = y1[sl]
        out += psi[sl]
        out += half

    ws.slabs(combine)
    return y1


def _potential_factor(ws: _Workspace, psi, a_field, tau, a2, grad):
    """Evolve for time tau under the A-dependent factor: the mixed term
    (_apply_mixed, which takes over grad, the gradient of psi), then the
    A^2 phase.  a2 is sum_i A_i^2 of a_field; the phase angle overwrites it
    and the phase factor takes grad's memory.

    Raises TimestepTooLargeError when the bound
    ||Y|| <= 2 |tau q / 2M| max|A| |k_grad|_max on the mixed generator
    exceeds MIXED_GENERATOR_LIMIT (or is not finite), where the polynomial
    applied by _apply_mixed is no longer unitary to roundoff.
    """
    mass = ws.spec.particle.mass
    y_bound = abs(tau * ws.charge / mass) * math.sqrt(
        float(a2.max())) * ws.k_grad_max
    if not y_bound <= MIXED_GENERATOR_LIMIT:
        raise TimestepTooLargeError(
            f"dt = {tau:.3e} s: mixed-term generator bound {y_bound:.3e} "
            f"exceeds {MIXED_GENERATOR_LIMIT:.0e}")
    psi = _apply_mixed(ws, psi, a_field, tau, grad)
    # exp(-i tau q^2 A^2 / 2M hbar), its angle formed by the operations (and
    # so to the bit) of Im(-1j * tau * q**2 * a2 / (2 M hbar)) in numpy
    angle, scale = -tau * ws.charge**2, 1.0 / (2.0 * mass * CONST.hbar)

    def slab(sl):
        theta = np.multiply(angle, a2[sl], out=a2[sl])
        theta *= scale
        np.multiply(psi[sl], _cis(theta, out=grad[0, sl]), out=psi[sl])

    ws.slabs(slab)
    return psi


@dataclass
class _Fsal:
    """First-same-as-last hand-over between consecutive steps.

    psi_hat: the finished spectrum of the state the next step starts
        from, handed over by the step before it or by the record of that
        state; None starts the step from state.psi.
    close: finish the step in real space (a record or the run's end is
        due); otherwise the step hands its finished spectrum over in
        psi_hat and returns psi = None.
    """

    psi_hat: np.ndarray | None = None
    close: bool = True


@_one_blas_thread
def step(state: GridState, spec: GridSpec, ws: _Workspace | None = None,
         a2_history: deque | None = None, *,
         fsal: _Fsal | None = None) -> GridState:
    """Advance one dt: T(dt/2) . W(dt; A[psi_mid]) . T(dt/2).

    The slaved field is refreshed from the midpoint psi (after the first
    half kinetic factor) and held fixed through W = P.M, so the step is not
    symmetric: second order at weak coupling, falling toward first order
    under strong coupling, and not time-reversible (module docstring).
    With coupling off the field factor W is skipped and A is carried over
    unchanged.  If a2_history is given, int A^2 d3r of the midpoint field
    (0 with coupling off) is appended (feeds the d^2/dt^2 diagnostic term).
    fsal chains steps inside evolve (see _Fsal); without it the step is the
    full split step.
    """
    _check_timestep(spec)
    if ws is None:
        ws = _Workspace(spec)
    half_kin = ws.half_kin
    psi_hat = None
    if fsal is not None:
        psi_hat, fsal.psi_hat = fsal.psi_hat, None
    if psi_hat is None:
        psi_hat = ws.fftn(state.psi)
    ws.imul(psi_hat, half_kin)
    if spec.coupling:
        psi_mid = ws.ifftn(psi_hat, overwrite=True)
        # grad psi_mid serves the current and the first mixed-term pass
        grad = ws.grad(psi_mid)
        a_mid = ws.irfftn(ws.field_hat(psi_mid, ws.current(psi_mid, grad),
                                       a_prev=state.a_field))
        a2 = ws.dot(a_mid, a_mid)
        if a2_history is not None:
            a2_history.append(ws.integral(a2))
        psi = _potential_factor(ws, psi_mid, a_mid, spec.dt, a2, grad)
        psi_hat = ws.fftn(psi, overwrite=True)
    else:
        a_mid = state.a_field
        if a2_history is not None:
            a2_history.append(0.0)
    ws.imul(psi_hat, half_kin)
    t = state.t + spec.dt
    if fsal is not None and not fsal.close:
        fsal.psi_hat = psi_hat
        return GridState(psi=None, a_field=a_mid, t=t)
    return GridState(psi=ws.ifftn(psi_hat, overwrite=True), a_field=a_mid, t=t)


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Conservation diagnostics at one instant."""

    step: int
    t: float
    norm: float
    energy: float          # J, conserved-energy form
    momentum: np.ndarray   # kg m/s, matter + field
    flux_residual: float   # W, power-balance consistency residual
    kinetic: float
    interaction: float
    efield_energy: float
    a2_rate_term: float
    field_energy: float    # eps0/2 int (E^2 + c^2 B^2)
    current_dot_e: float


@_one_blas_thread
def diagnostics(state: GridState, spec: GridSpec, ws: _Workspace | None = None,
                a2_history: deque | None = None,
                prev_power: tuple[float, float, float] | None = None,
                step_index: int = 0, *,
                fsal: _Fsal | None = None) -> DiagnosticsRecord:
    """Evaluate norm, conserved energy, momentum, and the flux residual.

    A comes from the step's field solve, field_hat, and the transverse
    E-field from the same vector_potential_hat of an rfftn half spectrum:
    E_hat = -P_perp dj/dt_hat / (eps0 c^2 k^2) without time history, with
    dj/dt computed from the instantaneous Schroedinger flow.  Spectral sums
    run over the half spectrum (_Workspace.half_sum).  The magnetic energy
    needs no curl: for the slaved field eps0 c^2 int B^2 = int j.A exactly
    on the grid.  The d^2/dt^2 int A^2 correction uses the last three
    per-step values when a2_history is supplied, otherwise it is reported
    as zero.  With fsal, the spectrum of state.psi is handed to the next
    step in fsal.psi_hat.
    """
    if ws is None:
        ws = _Workspace(spec)
    psi = np.ascontiguousarray(state.psi)    # the derivatives read float views
    psi_hat = ws.fftn(psi)
    if fsal is not None:
        fsal.psi_hat = psi_hat
    dv_k = ws.dv / spec.n**3

    norm = ws.integral(np.abs(psi) ** 2)
    weight = np.abs(psi_hat) ** 2
    kinetic = dv_k * float(np.sum(ws.kin_omega * weight)) * CONST.hbar
    p_matter = CONST.hbar * dv_k * np.array(
        [float(np.sum(kg * weight)) for kg in ws.k_grad_axes])
    del weight

    if not spec.coupling:
        return DiagnosticsRecord(
            step=step_index, t=state.t, norm=norm, energy=kinetic,
            momentum=p_matter, flux_residual=0.0, kinetic=kinetic,
            interaction=0.0, efield_energy=0.0, a2_rate_term=0.0,
            field_energy=0.0, current_dot_e=0.0)

    # slaved field and interaction energy, on the step's half-spectrum path
    grad = ws.grad(psi)
    j_can = ws.current(psi, grad)
    j_src = j_can.copy() if spec.include_diagonal_na else j_can
    a_hat = ws.field_hat(psi, j_src, a_prev=state.a_field)
    a_field = ws.irfftn(a_hat)
    # without diagonal nA the source current is the canonical one: one sum
    j_dot_a = ws.integral(ws.dot(j_src, a_field))
    interaction = -0.5 * (j_dot_a if j_src is j_can
                          else ws.integral(ws.dot(j_can, a_field)))
    del j_src

    # E_perp from the instantaneous current derivative (no history needed):
    # dj_i/dt = (q/M) Re(conj(H psi) d_i psi - conj(psi) d_i(H psi)), one
    # task per component, in the memory of d_i psi; conj(H psi) takes the
    # memory of H psi.  D is real, so d_i(H psi) = conj(D_i conj(H psi)) and
    # the second term is Re(psi D_i conj(H psi)), to the bit
    h_psi = _hamiltonian_apply(ws, psi, psi_hat, a_field, grad)
    del psi_hat, a_field
    conj_h = np.conj(h_psi, out=h_psi)
    del h_psi
    dj_dt = np.empty(grad.shape, dtype=float)

    def axis_task(axis):
        g = grad[axis]
        np.multiply(conj_h, g, out=g)
        dj_dt[axis] = np.real(g)
        np.multiply(psi, ws.deriv(conj_h, axis, g), out=g)
        dj_dt[axis] -= np.real(g)

    list(ws.map(axis_task, range(3)))
    del grad, conj_h
    dj_dt *= ws.charge / spec.particle.mass
    e_hat = ws.vector_potential_hat(ws.rfftn(dj_dt))
    del dj_dt
    np.negative(e_hat, out=e_hat)
    efield_energy = CONST.eps0 * dv_k * ws.half_sum(np.abs(e_hat) ** 2)

    # d^2/dt^2 int A^2 from the last three per-step midpoint values
    a2_term = 0.0
    if a2_history is not None and len(a2_history) >= 3:
        i0, i1, i2 = list(a2_history)[-3:]
        a2_term = CONST.eps0 / 4.0 * (i2 - 2.0 * i1 + i0) / spec.dt / spec.dt

    energy = kinetic + interaction + efield_energy + a2_term

    # momentum: field part eps0 sum_j int E_j grad A_j, i.e. the k-weighted
    # sums of Re(conj(e_hat) . i a_hat) = Im(conj(a_hat) . e_hat), formed in
    # a_hat's memory (numpy's complex product is not bitwise commutative)
    np.conj(a_hat, out=a_hat)
    a_hat *= e_hat
    e_dot_a = np.imag(a_hat[0] + a_hat[1] + a_hat[2])
    kgx, kgy, kgz = ws.k_grad_axes
    p_field = CONST.eps0 * dv_k * np.array(
        [ws.half_sum(kg * e_dot_a)
         for kg in (kgx, kgy, kgz[..., :e_dot_a.shape[-1]])])
    del a_hat, e_dot_a

    # power balance: d(field energy)/dt + int j.E should vanish.  Slaved A has
    # k^2 |a_hat|^2 = Re(conj(a_hat).j_hat)/(eps0 c^2): eps0 c^2 int B^2 = int j.A
    field_energy = 0.5 * (efield_energy + j_dot_a)
    current_dot_e = ws.integral(ws.dot(j_can, ws.irfftn(e_hat)))
    flux_residual = 0.0
    if prev_power is not None:
        t_prev, u_prev, jde_prev = prev_power
        if state.t > t_prev:
            flux_residual = (field_energy - u_prev) / (state.t - t_prev) \
                + 0.5 * (current_dot_e + jde_prev)

    return DiagnosticsRecord(
        step=step_index, t=state.t, norm=norm, energy=energy,
        momentum=p_matter + p_field, flux_residual=flux_residual,
        kinetic=kinetic, interaction=interaction, efield_energy=efield_energy,
        a2_rate_term=a2_term, field_energy=field_energy,
        current_dot_e=current_dot_e)


def _hamiltonian_apply(ws: _Workspace, psi, psi_hat, a_field, grad):
    """H psi for H = p^2/2M - (q/2M)(A.p + p.A) + q^2 A^2 / 2M; grad is
    grad psi in real space and psi_hat the spectrum of psi.  The mixed term
    is (i q hbar / 2M) G psi, with G psi from _mixed_generator."""
    mass = ws.spec.particle.mass
    mixed = _mixed_generator(ws, a_field, psi, grad)
    kinetic, h_hat = np.empty(psi.shape), np.empty_like(psi)

    def kinetic_slab(sl):
        k = np.multiply(ws.kin_omega[sl], CONST.hbar, out=kinetic[sl])
        np.multiply(k, psi_hat[sl], out=h_hat[sl])

    ws.slabs(kinetic_slab)
    del kinetic
    h_psi = ws.ifftn(h_hat, overwrite=True)
    del h_hat
    # scaled in place, in the operand order of (1j q hbar / 2M) * mixed
    c_mixed = 1j * ws.charge * CONST.hbar / (2.0 * mass)

    def add_mixed(sl):
        m, h = mixed[sl], h_psi[sl]
        h += np.multiply(c_mixed, m, out=m)

    ws.slabs(add_mixed)
    del mixed
    diamagnetic = ws.dot(a_field, a_field)
    term = np.empty_like(psi)

    def add_diamagnetic(sl):
        d, h = diamagnetic[sl], h_psi[sl]
        d *= ws.charge**2 / (2.0 * mass)
        h += np.multiply(d, psi[sl], out=term[sl])

    ws.slabs(add_diamagnetic)
    return h_psi


@dataclass
class Trajectory:
    """Recorded diagnostics plus the final state of an evolution run."""

    records: list[DiagnosticsRecord]
    final_state: GridState


def _finite(rec: DiagnosticsRecord) -> DiagnosticsRecord:
    """rec, or FloatingPointError naming its first non-finite field."""
    for field in dataclasses.fields(rec):
        if not np.all(np.isfinite(getattr(rec, field.name))):
            raise FloatingPointError(f"non-finite {field.name} at step {rec.step}")
    return rec


@_one_blas_thread
def evolve(state: GridState, spec: GridSpec, n_steps: int,
           record_stride: int = 1) -> Trajectory:
    """Run n_steps of evolution, recording diagnostics every record_stride.

    Records always include t = 0 and the final step.  Between records the
    steps (coupled or not) are chained first-same-as-last: each fuses its
    trailing half kinetic factor with the next step's leading one, so psi
    stays in Fourier space.  Every record restarts the chain from
    real-space psi, which makes a run resumed from a snapshot of a recorded
    state bit-identical to the uninterrupted run with the same stride.
    Without diagonal nA a coupled step never reads the previous field, so
    each step runs on a copy of the state without it, and the field is
    freed while the next one is solved; the caller's state keeps its own.
    Deterministic: identical inputs produce bit-identical trajectories.
    Raises FloatingPointError, naming the field and the step, at the first
    record that is not finite.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if record_stride < 1:
        raise ValueError("record_stride must be >= 1")
    _check_timestep(spec)
    ws = _Workspace(spec)
    a2_history: deque = deque(maxlen=3)
    records: list[DiagnosticsRecord] = []
    fsal = _Fsal()
    drop_field = spec.coupling and not spec.include_diagonal_na
    current = state
    for k in range(n_steps + 1):
        if k:
            fsal.close = k % record_stride == 0 or k == n_steps
            if drop_field:
                current = dataclasses.replace(current, a_field=None)
            current = step(current, spec, ws=ws, a2_history=a2_history, fsal=fsal)
        if fsal.close:
            prev_power = (records[-1].t, records[-1].field_energy,
                          records[-1].current_dot_e) if records else None
            records.append(_finite(diagnostics(
                current, spec, ws=ws, a2_history=a2_history,
                prev_power=prev_power, step_index=k, fsal=fsal)))
    return Trajectory(records=records, final_state=current)


# ---------------------------------------------------------------------------
# snapshot serialization
# ---------------------------------------------------------------------------

def save_snapshot(state: GridState, spec: GridSpec, path):
    """Write header line (JSON) + psi (Re,Im pairs) + A_x, A_y, A_z blocks.

    All float64 little-endian, row-major with x the fastest index: psi is
    one <c16 block and A one <f8 block.
    """
    header = {
        "version": SNAPSHOT_VERSION,
        "n": spec.n,
        "box_m": spec.box,
        "dt_s": spec.dt,
        "t_s": state.t,
        "particle": {"z": spec.particle.z, "mass_kg": spec.particle.mass},
        "coupling": spec.coupling,
        "include_diagonal_nA": spec.include_diagonal_na,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(np.ascontiguousarray(state.psi.T, dtype="<c16"))
        fh.write(np.ascontiguousarray(state.a_field.transpose(0, 3, 2, 1),
                                      dtype="<f8"))


# header fields and types exactly as save_snapshot writes them
_SNAPSHOT_HEADER = {"version": int, "n": int, "box_m": float, "dt_s": float,
                    "t_s": float, "particle": dict, "coupling": bool,
                    "include_diagonal_nA": bool}
_SNAPSHOT_PARTICLE = {"z": int, "mass_kg": float}
_SNAPSHOT_HEADER_MAX = 4096   # bytes


def _fields_ok(obj, schema) -> bool:
    return (isinstance(obj, dict) and set(obj) == set(schema)
            and all(type(obj[key]) is kind for key, kind in schema.items()))


def load_snapshot(path, label: str = "") -> tuple[GridState, GridSpec]:
    """Inverse of save_snapshot; restores bit-identical state and spec.

    The header must hold exactly the fields save_snapshot writes, give a
    valid GridSpec and a finite time, and the file must be the header plus
    5 n^3 float64 values long; the size is checked before any array is
    allocated.  A snapshot that fails raises ConfigError("snapshot_in").
    """
    with open(path, "rb") as fh:
        line = fh.readline(_SNAPSHOT_HEADER_MAX)
        try:
            header = json.loads(line.decode())
        except (ValueError, RecursionError) as exc:
            raise ConfigError("snapshot_in", f"header is not a JSON line: {exc}") from exc
        if not (_fields_ok(header, _SNAPSHOT_HEADER)
                and _fields_ok(header["particle"], _SNAPSHOT_PARTICLE)):
            raise ConfigError("snapshot_in", "header must hold exactly the fields "
                              f"{sorted(_SNAPSHOT_HEADER)} with particle {{z, mass_kg}}")
        if header["version"] != SNAPSHOT_VERSION:
            raise ConfigError("snapshot_in", f"unsupported snapshot version {header['version']}")
        if not math.isfinite(header["t_s"]):
            raise ConfigError("snapshot_in", f"time t_s = {header['t_s']} is not finite")
        try:
            particle = ParticleSpec(z=header["particle"]["z"],
                                    mass=header["particle"]["mass_kg"], label=label)
            spec = GridSpec(n=header["n"], box=header["box_m"], dt=header["dt_s"],
                            particle=particle, coupling=header["coupling"],
                            include_diagonal_na=header["include_diagonal_nA"])
        except ValueError as exc:
            raise ConfigError("snapshot_in", str(exc)) from exc
        n = spec.n
        expected = len(line) + 5 * n**3 * 8
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise ConfigError("snapshot_in", f"file is {size} bytes, expected {expected} "
                              f"for n = {n}")
        psi = np.frombuffer(fh.read(n**3 * 16), dtype="<c16").reshape(n, n, n)
        psi = np.ascontiguousarray(psi.T, dtype=complex)
        a = np.frombuffer(fh.read(3 * n**3 * 8), dtype="<f8").reshape(3, n, n, n)
    return GridState(psi=psi, t=header["t_s"],
                     a_field=np.ascontiguousarray(a.transpose(0, 3, 2, 1), dtype=float)), spec
