"""Fuzzing of the command-line boundary with hypothesis.

Mutated instance files (float and rational) go through `mwspec verify`, and
random argument vectors through `mwspec gen` and `mwspec verify`. Every run
must end in a documented exit code with no escaping exception, and malformed
input must give exit code 2, never 1 ("a check failed"). A pass (exit 0)
never rests on a check that overflowed or met a non-finite matrix.
"""

import contextlib
import io
import json
import math
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mwspec.cli import main
from mwspec.errors import MwspecError
from mwspec.golden import golden_instance
from mwspec.model import parse_instance, random_instance, serialize_instance

FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# a rational path whose inverted weights overflow (L is all inf): no LAPACK
# error on it may escape as a traceback
TINY_PATH = {"edges": [{"u": u, "v": u + 1, "w": [["1/1" + "0" * 308]]} for u in (1, 2)]}
BASES = [json.loads(serialize_instance(inst)) for inst in (
    random_instance(3, 2, seed=5, extra_edges=1),
    random_instance(3, 1, seed=4, extra_edges=1),
    random_instance(3, 1, seed=2, extra_edges=1, rational=True),
    golden_instance(),
)] + [{"n": 3, "s": 1, "scalar_kind": "rational", "tree": TINY_PATH, "graph": TINY_PATH}]

NUMBERS = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([2**63, 10**400, -(10**400)]),
    st.floats(),
    st.sampled_from([0.0, -1.0, 1e-320, 1e300, 1e308]),
)
RATIONAL_TEXT = st.one_of(
    st.sampled_from(["1/2", "-1/3", "2/4", "1/0", "0", "3", "10/1", "1.5", "",
                     "9" * 400, "1/" + "9" * 400]),
    st.text(max_size=6),
)
SCALARS = st.one_of(st.none(), st.booleans(), NUMBERS, RATIONAL_TEXT)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8,
)


def exit_code(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:   # argparse rejects an argument with exit 2
        code = exc.code
    assert "Traceback" not in err.getvalue()
    assert code in (0, 1, 2, 3), code
    return code


def _paths(node, path=()):
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


def _mutate(doc, data):
    """One structural edit: replace, delete or add at a random node."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    action = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if not path or action == "replace":
        value = data.draw(VALUES)
        if not path:
            return value
        parent[path[-1]] = value
    elif action == "delete":
        del parent[path[-1]]
    else:
        node = parent[path[-1]]
        if isinstance(node, dict):
            node[data.draw(st.text(max_size=3))] = data.draw(VALUES)
        elif isinstance(node, list):
            node.append(data.draw(VALUES))
        else:
            parent[path[-1]] = [node, data.draw(VALUES)]
    return doc


EXTREMES = {
    "float": [10**400, 1e308, 1e200, 1e-200, 1e-320, 0.0, -1.0],
    "rational": ["9" * 400, "1/" + "9" * 400, "9" * 300, "1/" + "9" * 300, "0", "-1"],
}


def _set_extreme_weight(doc, data):
    """Set one diagonal weight entry to an extreme value; symmetry is kept."""
    edges = doc[data.draw(st.sampled_from(["tree", "graph"]))]["edges"]
    w = data.draw(st.sampled_from(edges))["w"]
    i = data.draw(st.integers(0, len(w) - 1))
    w[i][i] = data.draw(st.sampled_from(EXTREMES[doc["scalar_kind"]]))


def _malformed(text: str) -> bool:
    try:
        parse_instance(text)
    except MwspecError:
        return True
    return False


@FUZZ
@given(data=st.data())
def test_mutated_instance_never_escapes(tmp_path, data):
    doc = json.loads(json.dumps(data.draw(st.sampled_from(BASES))))
    if data.draw(st.booleans()):
        _set_extreme_weight(doc, data)
    for _ in range(data.draw(st.integers(0, 3))):
        doc = _mutate(doc, data)
    text = json.dumps(doc)
    if data.draw(st.booleans()):
        cut = data.draw(st.integers(0, len(text)))
        text = text[:cut] + data.draw(st.text(max_size=3)) + text[cut:]
    path = tmp_path / "fuzz.json"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = exit_code(["verify", "--in", str(path), "--beta", "1"])
    if _malformed(text):
        assert code == 2
    else:
        assert code in (0, 1)
    if code == 0:   # numpy warns of overflow and NaNs with a RuntimeWarning
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


BAD_FLOATS = [-1.0, math.nan, math.inf, -math.inf]
WILD_FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, 1e-320, 1e308]))


@FUZZ
@given(data=st.data(), broken=st.sampled_from(
    [None, "n", "s", "seed", "extra", "lo", "hi", "order", "kind", "all"]))
def test_gen_arguments_never_escape(tmp_path, data, broken):
    """Valid arguments, then at most one broken (or all drawn at random)."""
    def arg(name, good, bad, wild):
        return data.draw(wild if broken == "all" else bad if broken == name else good)

    n = arg("n", st.integers(2, 8), st.integers(-2, 1), st.integers(-2, 8))
    s = arg("s", st.integers(1, 3), st.integers(-1, 0), st.integers(-1, 3))
    seed = arg("seed", st.integers(0, 2**70), st.integers(-2**70, -1),
               st.integers(-5, 2**70))
    max_extra = max(n, 2) * (max(n, 2) - 1) // 2 - (max(n, 2) - 1)
    extra = arg("extra", st.integers(0, max_extra),
                st.sampled_from([-1, max_extra + 1]), st.integers(-3, 30))
    lo = arg("lo", st.floats(1e-3, 1.0), st.sampled_from(BAD_FLOATS + [0.0]),
             WILD_FLOATS)
    hi = arg("hi", st.floats(1.0, 1e3), st.sampled_from([math.nan, math.inf]),
             WILD_FLOATS)
    kind = arg("kind", st.sampled_from(["float", "rational"]), st.just("complex"),
               st.sampled_from(["float", "rational", "complex"]))
    if broken == "order":
        lo, hi = hi + 1.0, lo
    # rational weights take no range: give one with float weights, or when
    # the range is what is broken
    ranged = kind != "rational" or broken in ("lo", "hi", "order", "all")
    out = tmp_path / "gen.json"
    code = exit_code(["gen", "--n", str(n), "--s", str(s), "--seed", str(seed),
                      "--extra-edges", str(extra),
                      *(["--weight-lo", repr(lo), "--weight-hi", repr(hi)] if ranged else []),
                      "--scalar-kind", kind, "--out", str(out)])
    if broken == "all":
        assert code in (0, 2)
    else:
        assert code == (2 if broken else 0)
    if code == 0:
        # gen writes only instances that verify accepts
        assert not _malformed(out.read_text())


@FUZZ
@given(which=st.integers(0, len(BASES) - 1),
       betas=st.lists(st.sampled_from([0.0, 0.5, 1.0, 10.0]), max_size=3),
       mode=st.sampled_from([None, "float", "both"]),
       corrupt=st.sampled_from([None, "1,3,1.1"]),
       broken=st.sampled_from([None, "beta", "mode", "corrupt", "tol"]),
       data=st.data())
def test_verify_arguments_never_escape(tmp_path, which, betas, mode, corrupt,
                                       broken, data):
    """Valid arguments with at most one broken; exit 2 exactly when broken."""
    base = BASES[which]
    if base["scalar_kind"] == "float" and mode == "both":
        broken = broken or "exact mode on a float instance"
    if broken == "beta":
        betas = betas + [data.draw(st.sampled_from(BAD_FLOATS))]
    elif broken == "mode":
        mode = data.draw(st.sampled_from(["rational", "", "FLOAT", "exact"]))
    elif broken == "corrupt":
        corrupt = data.draw(st.sampled_from(
            ["0,1,2", "99,1,2", "1,1,nan", "1,1,inf", "1,2", "a,b,c", "",
             "2,2,0.5", "1,3,1"]))
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(base))
    argv = ["verify", "--in", str(path)]
    for b in betas:
        argv += ["--beta", repr(b)]
    if mode is not None:
        argv += ["--mode", mode]
    if corrupt is not None:
        argv += ["--corrupt-d", corrupt]
    if broken == "tol":
        # the thresholds are constants: no value of a former flag is valid
        argv += [data.draw(st.sampled_from(["--eig-zero", "--rel-residual",
                                            "--nonzero-floor"])),
                 repr(data.draw(st.sampled_from([1e-9, 0.0, 1.0, 2.0, math.nan,
                                                 math.inf])))]
    code = exit_code(argv)
    if broken:
        assert code == 2
    else:
        assert code in (0, 1)
