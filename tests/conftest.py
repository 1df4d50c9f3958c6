import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from keywarp.demo import save_demo_library
from keywarp.sim import CorrespondenceOracle, DemoLibrary, OracleConfig, default_layout, generate_demo_library
from keywarp.tasks import builtin_tasks


@pytest.fixture(scope="session")
def layout():
    return default_layout()


@pytest.fixture(scope="session")
def library_dir(tmp_path_factory, layout):
    """Scripted 10-demos-per-task library on disk, shared by the suite."""
    path = tmp_path_factory.mktemp("library") / "demos"
    summaries, sidecars = generate_demo_library(layout, builtin_tasks(), n=10,
                                                seed=0)
    save_demo_library(path, summaries, sidecars)
    return path


@pytest.fixture(scope="session")
def library(library_dir):
    return DemoLibrary.load(library_dir)


@pytest.fixture()
def clean_oracle(library):
    """Fresh noiseless oracle with the library's annotations registered."""
    oracle = CorrespondenceOracle(OracleConfig())
    library.register_with(oracle)
    return oracle


def make_oracle(library, **kwargs):
    oracle = CorrespondenceOracle(OracleConfig(**kwargs))
    library.register_with(oracle)
    return oracle


class NaNReplies:
    """A matcher that replies a NaN pixel to the queries named by
    `nan_for(source, target, query_view, target_view)`, and otherwise as
    `inner`. The default names the demo-to-scene queries of the left view
    and every cross-view query."""

    def __init__(self, inner, nan_for=None):
        self.inner = inner
        self.nan_for = nan_for or (lambda source, target, qv, tv: qv != tv or (
            qv == "left" and source.state_id != target.state_id))

    def match(self, source, target, query_pixel, query_view, target_view):
        if self.nan_for(source, target, query_view, target_view):
            return np.full(2, np.nan)
        return self.inner.match(source, target, query_pixel, query_view, target_view)


def json_key_paths(doc, names=(), path=()):
    """The path of every key in a JSON document, except the keys of the
    name-keyed maps in `names` (whose values are still walked)."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            if not (path and path[-1] in names):
                yield path + (key,)
            yield from json_key_paths(value, names, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from json_key_paths(value, names, path + (i,))


def drop_key(doc, path):
    """Delete the key at `path` from a JSON document, in place."""
    for key in path[:-1]:
        doc = doc[key]
    del doc[path[-1]]
