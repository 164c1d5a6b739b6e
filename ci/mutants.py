"""A census of mutants: each catalogued change to ``src/pirsi`` must make Tier-1 fail.

Each entry of ``CATALOGUE`` names a file, a text that must occur in it
exactly once, its replacement, and what the change breaks.  For each
mutant the tree is copied to a fresh temporary directory, the text is
replaced there, and Tier-1 runs with ``-x``, without the golden tests,
``tests/test_readme.py`` and the drift test (``tests/test_census.py``,
which every mutant fails by removing its own text): first the mutated
module's own ``tests/test_<module>.py``, where most mutants die, then the
rest, or all of it at once for a module with no test file of its own
(``__init__.py``).  A failure there is a kill.  Otherwise only the golden
tests and ``tests/test_readme.py`` run: they pin output bytes, so a
failure there is a weak kill, listed because regenerating the goldens
would hide it.
A mutant that survives both passes fails the census unless the catalogue
lists it as equivalent, with the reason no test can tell it apart.  An equivalent that is killed fails
the census too: its reason is wrong.

Before any mutant runs, the census checks that every old text still
occurs exactly once (a catalogue that has drifted from the code fails)
and that the unmutated tree passes both passes.  It exits 0 when every
mutant is killed or is a surviving equivalent, and 1 otherwise.  CI runs
it as a step of its own, about five minutes on a 2-vCPU host with Python
3.11.7 (101 mutants, 239–281 s):

    python ci/mutants.py
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# Tier-1's pytest call; each pass adds its selection.
PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
PINNED = "golden or test_readme"  # the tests that pin output bytes
# Tier-1 runs drift() too; main() checks it before any mutant runs.
DRIFT_TEST = "tests/test_census.py::test_census_catalogue_matches_the_code"
SEMANTIC = ["-x", "-k", f"not ({PINNED})", "--deselect", DRIFT_TEST]
WEAK = ["-k", PINNED]
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "*.egg-info", "build")
# A suite run that takes longer than this counts as a kill: Tier-1 does not pass.
RUN_TIMEOUT_S = 900


class Mutant(NamedTuple):
    file: str  # relative to src/pirsi
    old: str
    new: str
    why: str
    equivalent: str = ""  # why no test can kill it, if none can


CATALOGUE = [
    Mutant("rate.py", "sum(sorted(quotas, reverse=True)[:n])", "sum(sorted(quotas)[:n])",
           "the window sums the n smallest quotas, not the n largest"),
    Mutant("rate.py", "0 <= q <= quota_cap(s, n)", "0 <= q <= s",
           "the cap lets a quota fill the demands' slots"),
    Mutant("rate.py", "if l_formula <= n:", "if l_formula < n:",
           "compute_plan partitions when l_formula = n, where one subspace is optimal"),
    Mutant("rate.py", "if k > INSTANCE_K_CAP:", "if k >= INSTANCE_K_CAP:",
           "ProblemParams refuses k at the cap itself"),
    Mutant("scheme.py", "left -= free[u]", "left -= sizes[u]",
           "stage 2 weights blocks by size, not by free capacity"),
    Mutant("scheme.py", "pick = pool.pop(draw(len(pool)))",
           "pick = pool.pop(draw(len(pool)) if len(pool) > 1 else 0)",
           "stage 3 skips the draw when one side index is left: same law, other RNG stream"),
    Mutant("scheme.py", "mask[pick] = 0", "pass",
           "a stage-3 pick stays in the mask, so stage 4 deals it again"),
    Mutant("scheme.py", "mask[0] = 0", "mask[0] = 1",
           "index 0 stays in the mask, so stage 4 can deal it into a block"),
    Mutant("scheme.py", "if len(answer) != len(query.blocks):", "if False:",
           "client_decode ignores extra answer blocks"),
    Mutant("scheme.py", "not (min(indices) >= 1 and", "not (min(indices) >= 0 and",
           "require_indices passes index 0: a lookup reads the last message, a gather returns nothing"),
    Mutant("scheme.py", "if indices and min(indices) >= 1:", "if indices and min(indices) >= 0:",
           "gather reads index 0 off the padding, so the server codes a 0 for it"),
    Mutant("scheme.py", "(0,) + self.values", "self.values",
           "gather's 1-indexed view loses its padding: every gather, the server's included, is off by one"),
    Mutant("scheme.py", "if len(indices) > 1:", "if len(indices) > 0:",
           "gather hands a single key to itemgetter, which returns a bare int, not a 1-tuple"),
    Mutant("scheme.py", "max(group) <= k", "min(group) <= k",
           "validate_against checks only the low end of each index set"),
    Mutant("mds.py", "for i in range(r - u)):", "for i in range(0)):",
           "the decoder never checks the spare rows"),
    Mutant("mds.py", "for i in range(r - u)):", "for i in range(r - u - 1)):",
           "the decoder never checks the last spare row"),
    Mutant("mds.py", "width = 2 * p.bit_length() + n.bit_length()", "width = 2 * p.bit_length()",
           "the slot width drops its n term: a product sum of n columns carries into the next slot"),
    Mutant("mds.py", "width = 2 * p.bit_length() + n.bit_length()",
           "width = 2 * p.bit_length() + n.bit_length() - 1",
           "the slot width is one bit short"),
    Mutant("mds.py", "            joined.append(level[-1])", "            pass",
           "the column join drops the odd row out: an odd r loses its last row"),
    Mutant("mds.py", "mask = (1 << width) - 1", "mask = (1 << width - 1) - 1",
           "the slot mask is one bit short"),
    Mutant("mds.py", "return tuple(reversed(_from_roots(range(1, n + 1), p)))",
           "return tuple(_from_roots(range(1, n + 1), p))",
           "_all_points is lowest degree first, so the division route divides the wrong polynomial"),
    Mutant("mds.py", "            x = j + 1\n            acc, quotient",
           "            x = j\n            acc, quotient",
           "the division route divides out the point x = j, not x = j + 1"),
    Mutant("mds.py", "q[i - 1] = (poly[i] + x * q[i]) % p", "q[i - 1] = (poly[i] - x * q[i]) % p",
           "the quotient P / (t - x) is taken with the wrong sign"),
    Mutant("mds.py", "inverse[j] * inverse[n - 1 - j] * (-1) ** (n - 1 - j) % p",
           "inverse[j] * inverse[n - 1 - j] % p",
           "the node weights drop their sign (-1)**(n - x)"),
    Mutant("mds.py", "inverse[j] * inverse[n - 1 - j] *", "inverse[j] * inverse[n - 2 - j] *",
           "the node weights read the inverse factorial one index off: 1 / (n - x - 1)!"),
    Mutant("mds.py", "weights = _weights(n, p)", "weights = _weights(n - 1, p)",
           "the division route reads the weight table of n - 1 nodes"),
    Mutant("mds.py", "scales = [weights[j] * prod(map(j.__sub__, known)) for j in wanted]",
           "scales = [weights[j] for j in wanted]",
           "the division route takes the node weight among all n points as 1 / P'(x_l), "
           "leaving out the known points' factor"),
    Mutant("mds.py", "if len(unknown) > r:", "if len(unknown) > r + 1:",
           "the decoder tries one unknown more than it has equations"),
    Mutant("mds.py", "if u * u <= len(known) * n:", "if u * u <= len(known) * n // 2:",
           "the route cut moves: the division route runs where multiplying in is less work"),
    Mutant("wire.py", "return max(1, ((blocks - 1).bit_length() + 7) // 8)",
           "return max(1, (blocks.bit_length() + 7) // 8)",
           "the query's label width is one byte too wide at l = 256"),
    Mutant("wire.py", "if raw is None or binascii.b2a_base64(raw, newline=False) != encoded:",
           "if raw is None:",
           "the query parser reads non-canonical base64: QR== as QQ=="),
    Mutant("wire.py", "if raw and max(raw) >= len(rows):", "if raw and max(raw) > len(rows):",
           "the query parser lets label l past its check, to fail as an IndexError"),
    Mutant("scheme.py", "if len(values) != db.k:", "if False:",
           "the server answers a query whose labels cover only part of the database"),
    Mutant("rate.py", "if widest > CODE_ENTRIES_CAP:", "if widest >= CODE_ENTRIES_CAP:",
           "the code cap refuses a code of exactly CODE_ENTRIES_CAP entries"),
    Mutant("rate.py", "widest = max(map(operator.mul, rows, sizes))", "widest = min(map(operator.mul, rows, sizes))",
           "the code cap reads the smallest block, not the widest"),
    Mutant("rate.py", "map(operator.sub, self.size_profile", "map(operator.add, self.size_profile",
           "a plan's rows are size + quota: every block with a quota asks for more rows than it has columns"),
    Mutant("wire.py", '{{"answer":{answer},"decoded":{decoded},"plan":{plan},"query":{query},',
           '{{"answer":{query},"decoded":{decoded},"plan":{plan},"query":{answer},',
           "the transcript swaps its query and answer sections"),
    Mutant("wire.py", "if count > k:", "if count > k + 1:",
           "the database reader accepts one value after the k-th"),
    Mutant("wire.py", """raise ValueError("database's last line does not end with a newline")""",
           'body += "\\n"',
           "the database reader accepts a last line without its newline again"),
    Mutant("wire.py", 'if body and not body.endswith("\\n"):', 'if not body.endswith("\\n"):',
           "a file with no line after its header is refused for its newline, not as short of values"),
    Mutant("wire.py", "if top >= field.p:", "if top > field.p:",
           "the database reader accepts a value equal to p"),
    Mutant("wire.py", 'allowed = _DIGITS + sep.encode("ascii")', "allowed = _DIGITS",
           "split_decimals refuses its separator: every database of two or more lines "
           "and every index list of two or more is refused"),
    Mutant("wire.py", "if text and text.isascii()", "if text.isascii()",
           "split_decimals reads an empty text as no fields: an empty index list, a database line \"\""),
    Mutant("wire.py", "if max(map(max, blocks)) >= field.p:", "if False:",
           "the answer parser accepts values outside [0, p)"),
    Mutant("wire.py", 'ValueError(f"value {at + 1} is not', 'ValueError(f"value {at} is not',
           "split_decimals counts fields from 0: each refused line or field is named one too early"),
    Mutant("wire.py", 'DECIMAL = "0|[1-9][0-9]{0,639}"', 'DECIMAL = "0|[1-9][0-9]{0,640}"',
           "every reader admits a number of 641 digits, which int's least digit limit refuses"),
    Mutant("wire.py", 'DECIMAL = "0|[1-9][0-9]{0,639}"', 'DECIMAL = "0|[1-9][0-9]*"',
           "the decimal grammar has no bound: what is refused, and in whose words, "
           "depends on int's digit limit"),
    Mutant("wire.py", "(-?[0-9]{{1,{QUOTE_CAP}}})(?![0-9])", "(-?[0-9]+)",
           "the query's version is read unbounded: a version of 100,000 digits is echoed whole"),
    Mutant("wire.py", "            if top < 10**640:", "            if True:",
           "split_decimals' 10**640 bound dropped: a database line or an index past 640 digits "
           "is read where int's digit limit lets json read it"),
    Mutant("wire.py", "        field.check(values)", "        pass",
           "the database reader accepts a value not below p"),
    Mutant("field.py", 'return f"{repr(value[:QUOTE_CAP])}…" if len(value) > QUOTE_CAP else repr(value)',
           "return repr(value)",
           "quote echoes the whole text: a megabyte flag or line is printed whole"),
    Mutant("field.py", 'return f"{text[:QUOTE_CAP]}…" if len(text) > QUOTE_CAP else text', "return text",
           "quote returns a non-int's repr whole: a 50,000-element list is echoed whole"),
    Mutant("field.py", "value = value[:QUOTE_CAP + 1]", "value = value[:1]",
           "quote cuts a long list or tuple to one element: its echo loses all but the first"),
    Mutant("field.py", "    try:\n        text = repr(value)\n    except ValueError:", "    text = repr(value)\n    if False:",
           "quote builds a repr past int's digit limit: [10**5000] raises int's ValueError, not the refusal"),
    Mutant("field.py", "37, 41)", "37)",
           "Miller-Rabin without the 13th witness, which 318665857834031151167461 needs"),
    Mutant("field.py", "if not is_prime(p):", "if is_prime(p) is None:",
           "PrimeField accepts a composite modulus"),
    Mutant("field.py", "base._make = classmethod(lambda cls, iterable: cls(*iterable))", "pass",
           "_make and _replace build records the constructor refuses"),
    Mutant("scheme.py", "(tuple(sorted(demands)), held, side_values)", "(demands, held, side_values)",
           "DemandSpec keeps its demands in the order given, unsorted"),
    Mutant("scheme.py", "(field.check(values), field)", "(tuple(values), field)",
           "Database, and so a copy or a _replace of one, holds values outside [0, p)"),
    Mutant("scheme.py", "return self.values[index - 1]", "return self.values[index]",
           "a database lookup reads the next message: off by one"),
    Mutant("scheme.py", "start += len(support)", "pass",
           "the server's one gather is split wrongly: every block encodes the first block's values"),
    Mutant("cli.py", "EXACT_SETS_CAP.bit_length()", "3",
           "posterior_table_size takes the binomial at 3, not at the cap's bit length"),
    Mutant("privacy.py", "comb(params.k, params.n)", "comb(params.k, params.n - 1)",
           "posterior certifies the prior 1 / C(k, n - 1), not 1 / C(k, n)"),
    Mutant("privacy.py", "spec.validate_against(ProblemParams(params.k, 0, params.n))", "pass",
           "monte_carlo_tvd samples demand sets outside 1..k or of the wrong size"),
    Mutant("privacy.py", "MIN_EXPECTED = 5", "MIN_EXPECTED = 1",
           "monte_carlo_tvd runs with cells too thin for the normal approximation"),
    Mutant("privacy.py", "if n >= 2:", "if n >= 3:",
           "monte_carlo_tvd drops the pair cell at n = 2"),
    Mutant("privacy.py", "float(abs(count - mean))", "float(count - mean)",
           "monte_carlo_tvd sees only excesses, never deficits"),
    Mutant("privacy.py", "ALPHA / (2 * cells)", "ALPHA / 2",
           "monte_carlo_tvd drops the Bonferroni split over its cells"),
    Mutant("privacy.py", "ALPHA = 1e-6", "ALPHA = 1e-12",
           "monte_carlo_tvd's threshold loosens"),
    Mutant("privacy.py", "factor = Fraction(k - n, k - 1) if k > 1", "factor = Fraction(1) if k > 1",
           "monte_carlo_tvd drops the hypergeometric variance factor"),
    Mutant("cli.py", "    posterior_table_size(params)", "    pass",
           "privacy-exact draws a layout before refusing a table over the caps"),
    Mutant("cli.py", '        fromfile_prefix_chars="@",', "",
           "an @FILE argument is read as itself, not as the arguments in FILE"),
    Mutant("oracle.py", "return minima", "return [min(minima)] * len(minima)",
           "search_sweep ignores the window budget: every m gets the unbudgeted minimum"),
    Mutant("oracle.py", "top += f * c + max(0, rem - n)", "top += f * c + max(0, rem - n + 1)",
           "search_sweep's greedy tail counts one quota unit too many in its remainder part"),
    Mutant("oracle.py", "c = w // n", "c = -(-w // n)",
           "search_sweep caps the tail by the window's largest quota, not its smallest"),
    Mutant("oracle.py", "k - w - n * n", "k - w - n",
           "search_sweep's window takes n slots of overhead, not n * n"),
    Mutant("oracle.py", "ws = sum(quotas[:n])", "ws = sum(quotas[-n:])",
           "the brute-force walk's window is the n smallest quotas, not the n largest"),
    Mutant("oracle.py", "map(operator.le, quotas, caps)", "map(operator.lt, quotas, caps)",
           "the brute-force walk refuses a quota equal to its part's cap"),
    Mutant("oracle.py", "range(caps[0], -1, -1)", "range(caps[0], 0, -1)",
           "the brute-force walk never tries quota 0"),
    Mutant("oracle.py", "and sum(quotas[:n]) <= m", "and sum(quotas[-n:]) <= m",
           "the plan check's window is the n smallest quotas, not the n largest"),
    Mutant("oracle.py", "and quotas[-1] >= 0", "and True",
           "the plan check passes a negative quota"),
    Mutant("oracle.py", "[q <= s - n or q == 0 for", "[q < s - n or q == 0 for",
           "the plan check refuses a quota equal to its block's cap"),
    Mutant("oracle.py", "[q <= s - n or q == 0 for", "[q <= s - n for",
           "the plan check's cap loses its q == 0 case: a block no larger than n is refused at quota 0"),
    Mutant("oracle.py", "[q <= s - n or q == 0 for", "[q <= s - n + 1 or q == 0 for",
           "the plan check's cap lets a quota take one of the demands' slots"),
    Mutant("rate.py", "return max(size - n_demands, 0)", "return max(size - n_demands + 1, 0)",
           "the admit rule's cap, quota_cap, lets a quota take one of the demands' slots"),
    Mutant("cli.py", 'write("".join(lines))', 'write("".join(lines[:-1]))',
           "oracle writes each (k, n) sweep's lines without the last one"),
    Mutant("cli.py", "    require_code_fits(plan.rows, plan.size_profile)", "    pass",
           "simulate opens the database before refusing a code over the cap"),
    Mutant("cli.py", "1 <= args.k_max <= ORACLE_K_CAP:", "1 <= args.k_max <= ORACLE_K_CAP + 1:",
           "oracle accepts --k-max 301, one past its cap"),
    Mutant("cli.py", 'mismatch at indices {mismatches}", file=sys.stderr)\n        return 1',
           'mismatch at indices {mismatches}", file=sys.stderr)\n        return 0',
           "simulate exits 0 after a decode mismatch"),
    Mutant("field.py", "if n >= MR_BOUND:", "if n > MR_BOUND:",
           "is_prime takes MR_BOUND itself, a strong pseudoprime to all 13 witnesses, as prime"),
    Mutant("field.py", "min(values) < 0", "min(values) < -1",
           "check accepts the value -1"),
    Mutant("field.py", "-(10**QUOTE_CAP) < value < 10**QUOTE_CAP", "-(10**QUOTE_CAP) < value <= 10**QUOTE_CAP",
           "quote prints 10**64, 65 digits, whole"),
    Mutant("field.py", "return f\"{'-' * (value < 0)}{str(lead)[:QUOTE_CAP]}…\"",
           "return f\"{str(lead)[:QUOTE_CAP]}…\"",
           "quote drops the sign of a long negative number"),
    Mutant("wire.py", "list(map(str, range(1, k + 1)))", "list(map(str, range(k)))",
           "posterior_doc's table keys count indices from 0"),
    Mutant("wire.py", "dict.fromkeys(keys, prior)", "dict.fromkeys(keys, frac_str(report.prior * 2))",
           "posterior_doc gives every demand set twice the prior"),
    Mutant("wire.py", "labels = [-1] * (k + 1)", "labels = [0] * (k + 1)",
           "query_doc sends overlapping supports as another query: each gap reads as block 0"),
    Mutant("wire.py", "if raw is None or sum(map(sum, supports)) != k * (k + 1) // 2:", "if raw is None:",
           "query_doc sends index -j as index k + 1 - j"),
    Mutant("wire.py", "if not all(map(operator.eq, map(sorted, supports), map(list, supports))):",
           "if False:",
           "query_doc sends an unsorted support as the sorted one, whose coefficients differ"),
    Mutant("__init__.py", '__version__ = "0.1.0"',
           'from .scheme import draw_layout  # noqa: E402\n\n'
           '__all__.append("draw_layout")\n__version__ = "0.1.0"',
           "a stage that trusts its caller, draw_layout, is exported again"),
    Mutant("wire.py", "    require_code_fits(rows, map(len, supports))", "    pass",
           "parse_query_bytes skips the code cap: the server builds a 2,049 x 2,049 code for a 2,786-byte query"),
    Mutant("wire.py", "if len(raw) % width:", "if False:",
           "the query parser reads a trailing partial label as a short one: a 513-byte label string "
           "of 257 blocks is served, though no query is written so"),
]


def drift() -> list[str]:
    """The catalogue entries whose old text does not occur exactly once."""
    bad = []
    for mutant in CATALOGUE:
        count = (ROOT / "src" / "pirsi" / mutant.file).read_text().count(mutant.old)
        if count != 1:
            bad.append(f"{mutant.file}: {mutant.old!r} occurs {count} times")
    return bad


def run_pytest(tree: Path, selection: list[str]) -> tuple[bool, str]:
    """Whether the suite passed in ``tree``, and the first failing test (or why it stopped)."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(PYTEST + selection, cwd=tree, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {RUN_TIMEOUT_S} s"
    if done.returncode == 0:
        return True, ""
    if done.returncode not in (1, 2):  # 1: tests failed, 2: collection interrupted
        raise SystemExit(f"pytest exited {done.returncode}:\n{done.stdout}{done.stderr}")
    return False, first_failure(done.stdout)


def first_failure(stdout: str) -> str:
    """The node id of the first failing test in pytest's summary, or else its last line.

    The id runs up to pytest's " - " separator or the end of the line, so a
    parametrized id keeps its spaces.
    """
    first = re.search(r"^(?:FAILED|ERROR) (.+?)(?= - |$)", stdout, re.MULTILINE)
    return first[1] if first else stdout.strip().splitlines()[-1]


def census(mutant: Mutant | None) -> tuple[str, str]:
    """("killed" | "weak" | "survived", first failing test) for one mutant on a fresh copy.

    The semantic pass runs the mutated module's own ``tests/test_<module>.py``
    first, if there is one, then the rest: the same tests as one run, so the
    same verdict.
    ``None`` runs the unmutated tree in one run.
    """
    with tempfile.TemporaryDirectory(prefix="pirsi-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=COPY_IGNORE)
        if mutant is None:
            passed, killer = run_pytest(tree, SEMANTIC)
        else:
            path = tree / "src" / "pirsi" / mutant.file
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
            own = f"tests/test_{Path(mutant.file).stem}.py"
            if (tree / own).exists():
                passed, killer = run_pytest(tree, SEMANTIC + [own])
                if passed:
                    passed, killer = run_pytest(tree, SEMANTIC + ["--ignore", own])
            else:  # __init__.py has no test file of its own
                passed, killer = run_pytest(tree, SEMANTIC)
        if not passed:
            return "killed", killer
        passed, killer = run_pytest(tree, WEAK)
        return ("survived", "") if passed else ("weak", killer)


def main() -> int:
    started = time.perf_counter()
    bad = drift()
    if bad:
        print("the catalogue has drifted from the code:", *bad, sep="\n  ")
        return 1
    verdict, killer = census(None)
    if verdict != "survived":
        print(f"the unmutated tree fails Tier-1 at {killer}; no mutant can be judged")
        return 1
    failures, weak = 0, []
    for mutant in CATALOGUE:
        t0 = time.perf_counter()
        verdict, killer = census(mutant)
        label = f"{mutant.file}: {mutant.why}"
        if mutant.equivalent:
            ok = verdict == "survived"
            verdict = "equivalent" if ok else f"equivalent, yet {verdict}"
        else:
            ok = verdict != "survived"
        failures += not ok
        if verdict == "weak":
            weak.append(label)
        line = f"{verdict:<10} {label}" + (f" [{killer}]" if killer else "")
        print(f"{line} ({time.perf_counter() - t0:.1f} s)", flush=True)
    for mutant in CATALOGUE:
        if mutant.equivalent:
            print(f"equivalent: {mutant.file}: {mutant.why}: {mutant.equivalent}")
    for label in weak:
        print(f"weak kill, golden bytes only: {label}")
    print(f"{len(CATALOGUE)} mutants, {failures} unaccounted for, {len(weak)} weak kills, "
          f"{time.perf_counter() - started:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
