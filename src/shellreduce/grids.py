"""Tensor grids on rectangular parameter domains, Simpson quadrature and the
through-thickness rules."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

EDGES = ("left", "right", "bottom", "top")
MIN_SPACING = 1e-6      # below it the stencil weights can overflow


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on [a1, b1] x [a2, b2] with ij indexing."""

    x1: np.ndarray
    x2: np.ndarray

    @classmethod
    def uniform(cls, domain, n1, n2):
        (a1, b1), (a2, b2) = domain
        if n1 < 2 or n2 < 2:
            raise ConfigError("grid needs at least 2 nodes per direction")
        spacing = min((b1 - a1) / (n1 - 1), (b2 - a2) / (n2 - 1))
        if not spacing >= MIN_SPACING:
            raise ConfigError("chart domain %s is empty or reversed, or its "
                              "grid spacing %g is below %g"
                              % (domain, spacing, MIN_SPACING))
        return cls(np.linspace(a1, b1, n1), np.linspace(a2, b2, n2))

    @property
    def n1(self):
        return len(self.x1)

    @property
    def n2(self):
        return len(self.x2)

    @property
    def dx1(self):
        return float(self.x1[1] - self.x1[0])

    @property
    def dx2(self):
        return float(self.x2[1] - self.x2[0])

    @property
    def domain(self):
        return (
            (float(self.x1[0]), float(self.x1[-1])),
            (float(self.x2[0]), float(self.x2[-1])),
        )

    def mesh(self):
        return np.meshgrid(self.x1, self.x2, indexing="ij")


def simpson_weights(n, dx):
    """Composite Simpson weights on ``n`` uniform nodes (``n`` odd, >= 3)."""
    if n < 3 or n % 2 == 0:
        raise ConfigError("composite Simpson needs an odd node count >= 3, got %d" % n)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (dx / 3.0)


@functools.lru_cache(maxsize=8)
def _legendre(count):
    """Gauss-Legendre nodes and weights on [-1, 1]; an eigenvalue solve
    (~0.3 ms for 16 nodes), so a thickness sweep solves it once."""
    return np.polynomial.legendre.leggauss(count)


def thickness_rule(kind="gauss", count=16, h=1.0):
    """Quadrature nodes/weights on [-h/2, h/2]; weights sum to h."""
    if kind == "gauss":
        x, w = _legendre(int(count))
        return 0.5 * h * x, 0.5 * h * w
    if kind == "simpson":
        n = int(count)
        x = np.linspace(-0.5 * h, 0.5 * h, max(n, 2))  # simpson_weights checks n
        return x, simpson_weights(n, x[1] - x[0])
    raise ConfigError("unknown thickness rule %r" % (kind,))


def area_weights(grid):
    """Tensor-product Simpson weights, shape (n1, n2)."""
    return np.outer(
        simpson_weights(grid.n1, grid.dx1), simpson_weights(grid.n2, grid.dx2)
    )


def edge_index(name, n1, n2):
    """(axis, index) of a boundary edge.  axis is the *frozen* axis."""
    if name == "left":
        return 0, 0
    if name == "right":
        return 0, n1 - 1
    if name == "bottom":
        return 1, 0
    if name == "top":
        return 1, n2 - 1
    raise ConfigError("unknown edge %r (expected one of %s)"
                      % (name, ", ".join(EDGES)))


def edge_weights(grid, name):
    """Full-grid weight field: 1-D Simpson weights along one edge, zero
    elsewhere.  The running coordinate of 'left'/'right' is x2, of
    'bottom'/'top' is x1."""
    w = np.zeros((grid.n1, grid.n2))
    axis, idx = edge_index(name, grid.n1, grid.n2)
    if axis == 0:
        w[idx, :] = simpson_weights(grid.n2, grid.dx2)
    else:
        w[:, idx] = simpson_weights(grid.n1, grid.dx1)
    return w
