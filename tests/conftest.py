"""Session set-up shared by every test module."""

import contextlib
import warnings

# When a property fails, hypothesis imports hypothesis.extra._patching to
# offer a patch; that imports libcst, whose use of mypy_extensions.TypedDict
# warns, and pyproject.toml's error::DeprecationWarning filter would turn the
# warning into an internal error that hides the falsifying example and ends
# the session.  Imported here once, with warnings silenced, the module is
# already loaded when a property fails.  Without libcst there is nothing to
# import and hypothesis offers no patch.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore")
    import hypothesis.extra._patching  # noqa: F401
