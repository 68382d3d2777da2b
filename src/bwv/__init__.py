"""Exact and arbitrary-precision verification toolkit for the quadratic
relations among Bessel moments: Vanhove operators, Wrońskian matrices,
Bernoulli-number matrices, and high-precision Bessel-moment quadrature."""

__version__ = "0.1.0"

#: The moment kinds ``bwv.besselnum`` evaluates (its docstring defines
#: them), kept here so that the command line offers them without loading
#: the numeric layer.
MOMENT_KINDS = ("IKM", "IKM_LOG", "IKpM", "IKvM", "IpKM", "IvKM")
