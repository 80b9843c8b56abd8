"""Exact classification of low-dimensional CR-generic submanifolds.

Input: rational graphing functions phi_j(z, zb, u) for a manifold of
type (n, c) with 2n + c <= 5, over exact Gaussian-rational arithmetic.
Output: a verdict among the six classes, Levi-flat, or product-degenerate
cases, with machine-checkable rank witnesses and kernel certificates.
"""
