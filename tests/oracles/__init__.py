"""Scalar reference implementations the equivalence tests pin kernels against."""
