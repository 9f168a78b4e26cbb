"""Answer checking for benchmark queries.

* Exact fields (Fraction strings, witness payloads, pmfs, moments, Monte
  Carlo hits, battery counts) must equal the reference recorded from the
  commit that introduced the benchmark.
* Floats must agree within ``REL_TOL`` (relative) or ``ABS_TOL``.
* Fields that are not a function of the input (``SKIPPED``) are ignored.
* Closed-form rates (`rate ...`, `phase-diagram`) are not compared with
  recorded floats: they are checked against an independent grid minimum
  and independent formulas, as the planting-cost acceptance test does.
  Every phase-diagram row, and every `rate clique` argmin set, is checked
  against the candidate minimisers of the unsnapped mixture cost.

``check`` returns None for a correct answer and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
import random

from workloads import flags as _flags

REL_TOL = 1e-9
ABS_TOL = 1e-12
RATE_TOL = 1e-9          # the acceptance battery's closed-form vs grid tolerance
TIE_TOL = 1e-9           # documented tolerance within which argmins tie
POINT_TOL = 1e-9         # two argmins closer than this are one point
# An excess level t = delta * c / r within float rounding of an integer is
# that integer.  (The program snaps within 1e-9, the known `mixture_cost`
# defect, which this check does not copy.)
FLOAT_SNAP = 1e-12
GRID_POINTS = 100_000
PHASE_ROWS_GRID = 6
SKIPPED = frozenset({"seconds"})


def check(argv, code, stdout, reference):
    """Compare one answer; ``reference`` is {"code", "stdout"} or None."""
    if argv[0] == "rate":
        return code_error(code, 0) or _check_rate(argv, stdout)
    if argv[0] == "phase-diagram":
        return code_error(code, 0) or _check_phase_diagram(argv, stdout)
    if reference is None:
        return "no reference answer recorded for this query"
    return code_error(code, reference["code"]) or \
        compare_json(_parse(reference["stdout"]), _parse(stdout))


def code_error(code, expected):
    if code != expected:
        return f"exit code {code}, expected {expected}"
    return None


def _parse(text):
    try:
        return json.loads(text)
    except ValueError:
        return text


def compare_json(expected, actual, path="$"):
    """First difference between two decoded JSON values, or None."""
    if isinstance(expected, bool) or isinstance(actual, bool):
        same = expected is actual
    elif isinstance(expected, float):
        same = isinstance(actual, (int, float)) and \
            math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    elif isinstance(expected, dict) and isinstance(actual, dict):
        keys = (set(expected) | set(actual)) - SKIPPED
        for key in sorted(keys):
            if key not in expected or key not in actual:
                return f"{path}.{key}: present on one side only"
            diff = compare_json(expected[key], actual[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return f"{path}: length {len(actual)}, expected {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            diff = compare_json(e, a, f"{path}[{i}]")
            if diff:
                return diff
        return None
    else:
        same = type(expected) is type(actual) and expected == actual
    if same:
        return None
    return f"{path}: {_short(actual)}, expected {_short(expected)}"


def _short(value):
    text = json.dumps(value)
    return text if len(text) <= 60 else text[:57] + "..."


# ---------------------------------------------------------------------------
# Closed-form rates, checked independently of the program
# ---------------------------------------------------------------------------

def _real(text):
    return math.inf if text.strip().lower() == "inf" else float(text)


def mixture_costs(r, delta, c, xs):
    """Unsnapped clique/hub mixture cost at the points ``xs`` (finite c)."""
    import numpy as np
    xs = np.asarray(xs, dtype=np.float64)
    t = xs * delta * c / r
    fl = np.floor(t)
    return (delta * (1 - xs)) ** (2 / r) / 2 + (fl + (t - fl) ** (1 / (r - 1))) / c


def candidate_costs(r, delta, c):
    """(x, unsnapped cost) at the points where the mixture cost can attain its
    minimum: x = 0 (clique), the largest integer hub level and x = 1 (hub).
    Between integer levels both terms are concave in x, and the cost at the
    levels is concave in the level, so one of these points is a minimiser.
    c = 0 and c = inf are the uniform limits."""
    clique = delta ** (2 / r) / 2
    if c == 0:
        return [(0.0, clique)]
    if math.isinf(c):
        return [(0.0, clique), (1.0, delta / r)]
    t = delta * c / r
    if abs(t - round(t)) < FLOAT_SNAP:
        t = round(t)
    whole = math.floor(t)
    level = min(1.0, r * whole / (delta * c))
    # the hub term is exactly whole / c at the level, and has infinite slope
    # just above it, so it is not evaluated through the rounded level point
    return [(0.0, clique),
            (level, (delta * (1 - level)) ** (2 / r) / 2 + whole / c),
            (1.0, (whole + (t - whole) ** (1 / (r - 1))) / c)]


def grid_min_planting_cost(r, delta, c):
    """Minimum of the mixture cost over a 100k-point grid of x in [0, 1] and
    the candidate points."""
    import numpy as np
    best = min(cost for _, cost in candidate_costs(r, delta, c))
    if c == 0:
        return best
    xs = np.linspace(0.0, 1.0, GRID_POINTS)
    if math.isinf(c):
        grid = delta ** (2 / r) / 2 * (1 - xs) ** (2 / r) + xs * delta / r
    else:
        grid = mixture_costs(r, delta, c, xs)
    return min(best, float(np.min(grid)))


def _close(actual, expected, tol=RATE_TOL):
    return abs(actual - expected) <= tol


def _minimisers(r, delta, c, phi, slack):
    """(points that must be argmins, points that may be): candidates whose
    cost is within the tie tolerance of ``phi``, less or more ``slack``."""
    costs = candidate_costs(r, delta, c)
    return ([x for x, v in costs if v <= phi + TIE_TOL - slack],
            [x for x, v in costs if v <= phi + TIE_TOL + slack])


def _same_point(a, b, rel=0.0):
    return abs(a - b) <= POINT_TOL + rel * abs(b)


def _distinct(points):
    out = []
    for x in points:
        if not any(_same_point(x, y) for y in out):
            out.append(x)
    return out


def argmin_error(r, delta, c, phi, argmins, slack=RATE_TOL, rel=0.0):
    """Why ``argmins`` is not the set of minimisers of the mixture cost with
    minimum ``phi`` (``rel``: relative rounding of the printed points)."""
    must, may = _minimisers(r, delta, c, phi, slack)
    for x in argmins:
        if not any(_same_point(x, y, rel) for y in may):
            return f"argmin {x!r} is not a minimiser (candidates {candidate_costs(r, delta, c)})"
    for y in must:
        if not any(_same_point(x, y, rel) for x in argmins):
            return f"minimiser {y!r} missing from argmins {argmins}"
    return None


def _check_rate(argv, stdout):
    data = _parse(stdout)
    if not isinstance(data, dict):
        return "rate output is not a JSON object"
    flags = _flags(argv)
    delta = float(flags["--delta"])
    family = argv[1]
    if family == "clique":
        r, c = int(flags["--r"]), _real(flags["--c"])
        expected = grid_min_planting_cost(r, delta, c)
        phi = data.get("phi", math.nan)
        if not _close(phi, expected):
            return f"phi {phi} vs independent grid minimum {expected!r}"
        if not data.get("argmins"):
            return "no argmins"
        return argmin_error(r, delta, c, phi, data["argmins"])
    if family == "regular":
        pattern = decode_graph6(flags["--pattern"])
        theta = data.get("theta", math.nan)
        value = sum(ck * theta ** k for k, ck in enumerate(independence_counts(*pattern)))
        if not _close(value, 1 + delta, 1e-9 * (1 + delta)):
            return f"independence polynomial at theta is {value!r}, expected {1 + delta!r}"
        clique = delta ** (2 / pattern[0]) / 2
        expected = clique if _real(flags["--c"]) == 0 else min(clique, theta)
        if not _close(data.get("rate", math.nan), expected):
            return f"rate {data.get('rate')} vs {expected!r}"
        return None
    if family == "ap":
        if not _close(data.get("localised_rate", math.nan), math.sqrt(delta)):
            return "localised_rate is not sqrt(delta)"
        poisson = (1 + delta) * math.log(1 + delta) - delta
        if not _close(data.get("poisson_rate_per_mean", math.nan), poisson):
            return "poisson_rate_per_mean is not (1+d)log(1+d)-d"
        return None
    return f"unknown rate family {family!r}"


def _grid_values(text):
    start, stop, step = (float(v) for v in text.split(":"))
    return math.floor((stop - start) / step + 1e-9) + 1


def _label_error(r, delta, c, phi, label, slack):
    """Check one phase-diagram label against the candidate minimisers."""
    if label == "tie":
        may = _minimisers(r, delta, c, phi, slack)[1]
        return None if len(_distinct(may)) > 1 else f"tie, but one minimiser {may}"
    if label in ("clique", "hub"):
        return argmin_error(r, delta, c, phi, [0.0 if label == "clique" else 1.0], slack)
    if label.startswith("mixed:"):
        # the point is printed with 6 significant digits
        return argmin_error(r, delta, c, phi, [float(label[6:])], slack, rel=1e-5)
    return f"bad argmin label {label!r}"


def _check_phase_diagram(argv, stdout):
    flags = _flags(argv)
    lines = stdout.strip().splitlines()
    if not lines or lines[0] != "delta,c,phi,argmin_label":
        return "phase-diagram header missing"
    rows = [line.split(",") for line in lines[1:]]
    expected_rows = _grid_values(flags["--delta-grid"]) * _grid_values(flags["--c-grid"])
    if len(rows) != expected_rows:
        return f"{len(rows)} rows, expected {expected_rows}"
    r = int(flags["--r"])
    # every row against the candidate minimisers, a fixed argv-seeded sample
    # of rows also against the 100k-point grid
    sampled = set(random.Random(" ".join(argv)).sample(range(len(rows)),
                                                       min(PHASE_ROWS_GRID, len(rows))))
    for i, row in enumerate(rows):
        if len(row) != 4:
            return f"row {','.join(row)!r} does not have four fields"
        delta, c, phi = (float(v) for v in row[:3])
        # phi, delta and c are printed with 12 significant digits
        slack = RATE_TOL + 1e-11 * abs(phi)
        expected = min(cost for _, cost in candidate_costs(r, delta, c))
        if i in sampled:
            expected = grid_min_planting_cost(r, delta, c)
        if not _close(phi, expected, slack):
            return f"row {','.join(row)!r}: independent minimum {expected!r}"
        error = _label_error(r, delta, c, phi, row[3], slack)
        if error:
            return f"row {','.join(row)!r}: {error}"
    return None


def decode_graph6(text):
    """(n, edges) of a small graph6 string (n <= 62)."""
    n = ord(text[0]) - 63
    bits = []
    for ch in text[1:]:
        value = ord(ch) - 63
        bits.extend((value >> shift) & 1 for shift in range(5, -1, -1))
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return n, edges


def independence_counts(n, edges):
    """Number of independent vertex sets of each size, by brute force."""
    counts = [0] * (n + 1)
    for subset in range(1 << n):
        if not any(subset >> u & 1 and subset >> v & 1 for u, v in edges):
            counts[bin(subset).count("1")] += 1
    return counts
