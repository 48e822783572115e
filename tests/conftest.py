"""Test-run set-up shared by every test module."""

import warnings

# When a @given test fails, Hypothesis imports hypothesis.extra._patching to
# print the failing example as a patch. That module imports libcst, which
# warns with a DeprecationWarning; pyproject.toml's error::DeprecationWarning
# turns it into a pytest INTERNALERROR that ends the run without naming the
# test. Importing it once here, with that one warning ignored, lets a failing
# example report itself, and the error filters still hold everywhere else.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst, Hypothesis prints no patch anyway
        pass
