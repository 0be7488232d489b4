#!/usr/bin/env python3
"""Byte-identity gate: sha256 of every artifact a set of runs writes.

Runs the named built-in scenarios and config files through ``parapos run``
into a fresh temporary directory and prints a sorted ``path sha256`` table
of every artifact.  A ``manifest.json`` carries timestamps, so its line,
``<scenario>/manifest.json[status,verdicts,files,error]``, is the sha256 of
those four fields alone: a verdict datum or a Picard counter that moves
shows there.  Paths are relative to that directory, so tables from two
source trees compare line by line:

    PYTHONPATH=old/src python scripts/artifact_digests.py S4_asymptotics > old.txt
    PYTHONPATH=src python scripts/artifact_digests.py S4_asymptotics --compare old.txt

``--standard`` adds the standard gate set: the ten built-ins, every
``perfbench/configs/*.json`` file, the perfbench ``competition_2d`` config
from generator seed 7, and six code-built variants of built-ins that take
verdict, check or solve paths no other target takes (:func:`variants`): 20
scenarios, with 90 artifacts and 20 manifest lines in all:

    PYTHONPATH=old/src python scripts/artifact_digests.py --standard > old.txt
    PYTHONPATH=src python scripts/artifact_digests.py --standard --compare old.txt

With ``--compare FILE`` the script lists every path whose digest differs
from FILE, or that only one side has, and exits 1 if there is any.  A run
that ends in a configuration or runtime error (exit code 2 or 3) makes the
script exit with that code.

With ``--keep DIR`` the runs are written under DIR, which must be empty or
absent, instead of a temporary directory, and stay there.  Keeping both
trees' runs lets a file whose digest differs be compared value by value:

    PYTHONPATH=old/src python scripts/artifact_digests.py S6_oracle_crosscheck \
        --keep old_runs > old.txt
    PYTHONPATH=src python scripts/artifact_digests.py S6_oracle_crosscheck \
        --keep new_runs --compare old.txt
    python -c "import numpy as np, sys; \
        a, b = (np.genfromtxt(f, delimiter=',', names=True)['value'] for f in sys.argv[1:]); \
        print(np.abs(a - b).max() / np.abs(a).max(), a.min(), b.min())" \
        {old,new}_runs/S6_oracle_crosscheck/trajectory_duhamel.csv

which prints the largest difference relative to the old file's sup, then
each file's lowest value.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path

from parapos.checker import ASSUMPTION_IDS
from parapos.cli import main as parapos_main
from parapos.io import sha256_file
from parapos.scenarios import REGISTRY, list_scenarios

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
#: the manifest fields the gate compares; ``started`` and ``finished`` vary
MANIFEST_FIELDS = ("status", "verdicts", "files", "error")
MANIFEST_KEY = f"manifest.json[{','.join(MANIFEST_FIELDS)}]"


def variants():
    """Built-ins changed to reach verdict paths no other gate target reaches.

    ``S2_maxbound_component_bound`` adds the carrying bound of its second
    species.  ``S4_asymptotics_default_limits`` names no ``limits`` and no
    ``battery``, so the weak residuals take the problem's own limit
    coefficients and the default bump battery.  ``S1_positivity_every_check``
    requests every assumption id, A2 and A7a among them, and
    ``S1_positivity_majorants`` does the same with ``checks.majorants``, so
    A2 and A2' test the given ``d1`` and ``d2`` for dominance.
    ``S8_competition_2d_weak_residuals`` adds the steady state and the weak
    residuals of the 2D competition, the only 2D path of either.
    ``S8_competition_2d_one_species`` starts the 2D competition with its
    second species zero, so the 2D direct solve meets a component whose
    data is all zero, which must stay +0.0.
    """
    s2 = REGISTRY["S2_maxbound"][1]()
    s2["name"] = "S2_maxbound_component_bound"
    s2["analysis"] = {"ops": ["max_principle", "component_bound"],
                      "t_split": 0.5, "bound_component": 1}
    s4 = REGISTRY["S4_asymptotics"][1]()
    s4["name"] = "S4_asymptotics_default_limits"
    del s4["analysis"]["limits"], s4["analysis"]["battery"]
    every, majorants = REGISTRY["S1_positivity"][1](), REGISTRY["S1_positivity"][1]()
    every["name"], majorants["name"] = "S1_positivity_every_check", "S1_positivity_majorants"
    every["checks"] = {"assumptions": list(ASSUMPTION_IDS)}
    majorants["checks"] = {"assumptions": list(ASSUMPTION_IDS),
                           "majorants": {"d1": 0.5, "d2": 1.0}}
    s8 = REGISTRY["S8_competition_2d"][1]()
    s8["name"] = "S8_competition_2d_weak_residuals"
    s8["analysis"] = {"ops": ["max_principle", "steady_state", "weak_residuals"]}
    one = REGISTRY["S8_competition_2d"][1]()
    one["name"] = "S8_competition_2d_one_species"
    one["problem"]["initial"][1] = {"kind": "zero"}
    return [s2, s4, every, majorants, s8, one]


def standard_targets(directory):
    """The ``--standard`` targets; the generated and variant configs go under ``directory``."""
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    generated, _, _ = workloads.generate("competition_2d", 7, directory)
    built = []
    for data in variants():
        path = Path(directory) / f"{data['name']}.json"
        path.write_text(json.dumps(data))
        built.append(str(path))
    return ([name for name, _ in list_scenarios()]
            + [str(p) for p in sorted((PERFBENCH / "configs").glob("*.json"))]
            + generated + built)


def manifest_digest(path):
    """sha256 of a manifest's ``MANIFEST_FIELDS``, as sorted-key JSON."""
    data = json.loads(Path(path).read_text())
    fields = {key: data.get(key) for key in MANIFEST_FIELDS}
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


def digest_table(base):
    """``{relative path: sha256}`` for every file under ``base``.

    A manifest is keyed by ``MANIFEST_KEY`` in its directory and digested by
    :func:`manifest_digest`.
    """
    table = {}
    for p in sorted(Path(base).rglob("*")):
        if not p.is_file():
            continue
        if p.name == "manifest.json":
            table[str(p.parent.relative_to(base) / MANIFEST_KEY)] = manifest_digest(p)
        else:
            table[str(p.relative_to(base))] = sha256_file(p)
    return table


def read_table(path):
    table = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            name, digest = line.rsplit(" ", 1)
            table[name] = digest
    return table


def differences(ours, theirs):
    """Sorted paths whose digests differ or that only one table has."""
    return sorted(p for p in ours.keys() | theirs.keys()
                  if ours.get(p) != theirs.get(p))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("targets", nargs="*",
                        help="built-in scenario names or config file paths")
    parser.add_argument("--standard", action="store_true",
                        help="add the standard 20-scenario gate set")
    parser.add_argument("--compare", metavar="FILE", default=None,
                        help="a table printed earlier; list the paths that differ")
    parser.add_argument("--keep", metavar="DIR", type=Path, default=None,
                        help="write the runs under DIR (empty or absent) and keep them")
    args = parser.parse_args(argv)
    if not (args.targets or args.standard):
        parser.error("name at least one target, or pass --standard")
    if args.keep is not None and args.keep.is_dir() and any(args.keep.iterdir()):
        parser.error(f"--keep directory {args.keep} is not empty")

    os.environ.pop("PARAPOS_OUT", None)  # it would override --out
    where = (tempfile.TemporaryDirectory() if args.keep is None
             else contextlib.nullcontext(str(args.keep)))
    with where as out, tempfile.TemporaryDirectory() as inputs:
        targets = args.targets + (standard_targets(inputs) if args.standard else [])
        code = parapos_main(["run", *targets, "--out", out])
        table = digest_table(out)

    for name, digest in table.items():
        print(f"{name} {digest}")
    if code >= 2:
        print(f"parapos run exited with {code}", file=sys.stderr)
        return code
    if args.compare is not None:
        diff = differences(table, read_table(args.compare))
        for name in diff:
            print(f"differs: {name}", file=sys.stderr)
        manifests = sum(name.endswith(MANIFEST_KEY) for name in table)
        changed = sum(name.endswith(MANIFEST_KEY) for name in diff)
        print(f"{len(diff) - changed} of {len(table) - manifests} artifacts and "
              f"{changed} of {manifests} manifests differ from {args.compare}",
              file=sys.stderr)
        return 1 if diff else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
