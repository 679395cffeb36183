"""Scalar oracles the vectorized production kernels are tested against."""
