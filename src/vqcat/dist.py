"""V-functors, distributors, and the distributor calculus.

Distributor matrices are stored cod-major: `mat[y]` is the row phi(y, -)
as `bytes`, like a hom row, so `mat[y][x]` is phi(y,x) for phi: X -|-> Y,
matching the composition and extension formulas index for index.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BoundaryMismatch, QuantaleMismatch, VCatError
from .kernel import hom_matrix
from .vcat import VCategory, columns


@dataclass(frozen=True)
class VFunctor:
    dom: VCategory
    cod: VCategory
    mapping: tuple[int, ...]


@dataclass(frozen=True)
class Distributor:
    dom: VCategory
    cod: VCategory
    mat: tuple[bytes, ...]  # mat[y][x] = phi(y, x)


def functor_hom(f: VFunctor, g: VFunctor) -> int:
    """[X,Y](f,g), the meet of Y(fx, gx) over all x."""
    q = f.dom.quantale
    return q.meet_of(f.cod.hom[f.mapping[x]][g.mapping[x]] for x in range(len(f.dom)))


def functor_hom_matrix(cod: VCategory, fs, gs) -> tuple[bytes, ...]:
    """The matrix of [X,Y](f, g) with a row per f in `fs` and a column per g
    in `gs`, all functors into Y = `cod` from one X.

    By Yoneda Y(b, b') = meet_d [Y(d, b), Y(d, b')], so [X,Y](f, g) is the
    presheaf hom of the vectors (Y(d, f x))_(x, d) and (Y(d, g x))_(x, d).
    """
    cols = columns(cod.hom, len(cod))

    def vector(f):
        return b"".join(map(cols.__getitem__, f.mapping))

    return hom_matrix(cod.quantale, map(vector, fs), map(vector, gs))


def validate_distributor(dom: VCategory, cod: VCategory, mat) -> Distributor:
    if dom.quantale != cod.quantale:
        raise QuantaleMismatch("distributor between categories over different quantales")
    try:  # iter: `bytes` of an int row would make that many zero bytes
        mat = tuple(bytes(iter(row)) for row in mat)
    except (TypeError, ValueError):
        raise VCatError("distributor entries are not element indices below 256") from None
    if len(mat) != len(cod) or any(len(r) != len(dom) for r in mat):
        raise VCatError("distributor matrix has wrong shape")
    q = dom.quantale
    for y2 in range(len(cod)):
        for y in range(len(cod)):
            left = cod.hom[y2][y]
            for x in range(len(dom)):
                v = q.mult[left][mat[y][x]]
                for x2 in range(len(dom)):
                    if not q.leq[q.mult[v][dom.hom[x][x2]]][mat[y2][x2]]:
                        raise VCatError(
                            "bimodule condition failed",
                            (cod.objects[y2], dom.objects[x2]),
                        )
    return Distributor(dom, cod, mat)


def identity_dist(x: VCategory) -> Distributor:
    return Distributor(x, x, x.hom)


def compose_dist(psi: Distributor, phi: Distributor) -> Distributor:
    """Matrix multiplication (psi . phi)(z,x) = join_y psi(z,y)*phi(y,x)."""
    if psi.dom.quantale != phi.dom.quantale:
        raise QuantaleMismatch("distributor composition over different quantales")
    if psi.dom != phi.cod:
        raise BoundaryMismatch("distributor composition boundary mismatch")
    q = psi.dom.quantale
    ny = len(psi.dom)
    mat = tuple(
        bytes(
            q.join_of(q.mult[psi.mat[z][y]][phi.mat[y][x]] for y in range(ny))
            for x in range(len(phi.dom))
        )
        for z in range(len(psi.cod))
    )
    return Distributor(phi.dom, psi.cod, mat)


def right_extension(xi: Distributor, phi: Distributor) -> Distributor:
    """(xi <- phi)(z,y) = meet_x [phi(y,x), xi(z,x)], for phi: X-|->Y, xi: X-|->Z."""
    if xi.dom != phi.dom:
        raise BoundaryMismatch("right extension boundary mismatch")
    q = xi.dom.quantale
    nx = len(xi.dom)
    mat = tuple(
        bytes(
            q.meet_of(q.hom[phi.mat[y][x]][xi.mat[z][x]] for x in range(nx))
            for y in range(len(phi.cod))
        )
        for z in range(len(xi.cod))
    )
    return Distributor(phi.cod, xi.cod, mat)


def right_lifting(psi: Distributor, xi: Distributor) -> Distributor:
    """(psi -> xi)(y,x) = meet_z [psi(z,y), xi(z,x)], for psi: Y-|->Z, xi: X-|->Z."""
    if psi.cod != xi.cod:
        raise BoundaryMismatch("right lifting boundary mismatch")
    q = psi.dom.quantale
    nz = len(psi.cod)
    mat = tuple(
        bytes(
            q.meet_of(q.hom[psi.mat[z][y]][xi.mat[z][x]] for z in range(nz))
            for x in range(len(xi.dom))
        )
        for y in range(len(psi.dom))
    )
    return Distributor(xi.dom, psi.dom, mat)


def dist_le(phi: Distributor, psi: Distributor) -> bool:
    q = phi.dom.quantale
    return all(
        q.leq[phi.mat[y][x]][psi.mat[y][x]]
        for y in range(len(phi.cod))
        for x in range(len(phi.dom))
    )


def is_adjoint_pair(phi: Distributor, psi: Distributor) -> bool:
    """phi -| psi: X <= psi.phi and phi.psi <= Y for phi: X-|->Y, psi: Y-|->X."""
    if phi.dom != psi.cod or phi.cod != psi.dom:
        return False
    return dist_le(identity_dist(phi.dom), compose_dist(psi, phi)) and dist_le(
        compose_dist(phi, psi), identity_dist(phi.cod)
    )


def is_adjoint_functors(f: VFunctor, g: VFunctor) -> bool:
    """f -| g in V-Cat iff f^* = g_*, i.e. Y(f x, y) = X(x, g y) for all x, y."""
    if f.dom != g.cod or f.cod != g.dom:
        return False
    y_hom = f.cod.hom
    return all(
        y_hom[fx] == bytes(map(x_row.__getitem__, g.mapping))
        for fx, x_row in zip(f.mapping, f.dom.hom)
    )
