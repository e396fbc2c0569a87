"""Setup shim + optional native-kernel build.

The package is pure Python with one *optional* C extension:
``repro.core._native``, the compiled clock-engine kernel behind
``engine="native"`` (see DESIGN.md §13).  The build is best-effort by
design — without it the package falls back to ``ref``, the
byte-identical pure-Python reference engine, so a missing compiler
degrades performance, never correctness.  Build in place with::

    python setup.py build_ext --inplace

which is what CI's native job and developers run; ``pip install``
without a toolchain still succeeds (the extension is marked optional).
"""

from setuptools import Extension, find_packages, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Build ``repro.core._native`` if the toolchain allows; otherwise
    warn and continue — the ``ref`` engine keeps the package working."""

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # compiler missing / broken headers
            import warnings

            warnings.warn(
                f"could not build optional extension {ext.name}: {exc}; "
                "repro will fall back to the pure-Python ref engine"
            )


setup(
    package_dir={"": "src"},
    packages=find_packages("src"),
    ext_modules=[
        Extension(
            "repro.core._native",
            sources=["src/repro/core/_native.c"],
            optional=True,
        )
    ],
    cmdclass={"build_ext": optional_build_ext},
)
