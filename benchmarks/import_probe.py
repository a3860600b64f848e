"""Print, as JSON, how long each module took to load during `import cuq`.

Times are cumulative: a module's own body plus everything it imported first.
`python -X importtime` cannot give them here, because it logs only imports
made by the import statement, and scipy loads its subpackages through
`importlib.import_module` (`from scipy import stats`).  Both paths call
`importlib._bootstrap._find_and_load`, so this script times that instead.
Run it in a fresh interpreter with cuq on the path.
"""

import importlib._bootstrap as bootstrap
import json
import time

_load = bootstrap._find_and_load
cumulative = {}
loading = set()


def _timed_load(name, import_):
    # A module importing itself again while it loads (scipy.stats does)
    # re-enters here; only the outermost call times the load.
    if name in loading or name in cumulative:
        return _load(name, import_)
    loading.add(name)
    t0 = time.perf_counter()
    try:
        return _load(name, import_)
    finally:
        cumulative[name] = time.perf_counter() - t0
        loading.discard(name)


bootstrap._find_and_load = _timed_load
import cuq  # noqa: E402,F401
bootstrap._find_and_load = _load
print(json.dumps(cumulative))
