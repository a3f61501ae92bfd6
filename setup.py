"""Build script for the optional compiled kernel.

The package is fully functional without the extension; homcert.kernels
falls back to the pure-Python implementation when the import fails.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("homcert._kernels", ["src/homcert/_kernels.c"], optional=True)
    ]
)
