"""freeprod: structure calculator and verifier for reduced free products
of abelian C*-algebras with atomic-plus-diffuse states."""

__version__ = "0.1.0"
