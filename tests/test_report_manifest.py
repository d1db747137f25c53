"""Every report of the CLI, byte for byte, against a checked-in manifest.

cli.main runs in process on each document of a fixed set, for validate,
analyze and verify, human and --json, and for export of every matrix on
the small documents.  A manifest line holds the document, the command and
the sha256 of the exit code, standard output and standard error, so a
changed report names the document and the command that changed it.

The set: the Mozes pairs of the primes 5, 13, 17, 29 and 37; the
documents of the random-batch workload for the seeds 1-3; the fixed
documents of tests/_complexes.py; products of two cycles, where the
certificate of analyze fails and it takes the explicit checks; one
invalid document per validation error kind, and two that do not parse.

A change that alters a report on purpose regenerates the manifest,

    PYTHONPATH=src python tests/test_report_manifest.py

and lists every changed line.
"""

import contextlib
import hashlib
import io
import itertools
import sys
import tempfile
import unittest.mock
from pathlib import Path

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "report_manifest.txt"
PRIMES = (5, 13, 17, 29, 37)
SEEDS = (1, 2, 3)
CYCLES = ((3, 4), (5, 5), (4, 7), (6, 6))
SMALL = ("torus", "f2xf2", "klein", "two_vertex_klein", "two_torus_components")
EXPORTS = ("m1", "m2", "stacked", "d1", "d2", "phi1", "phi2")


def cycle(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def documents() -> dict[str, bytes]:
    """The documents of the manifest by name, as the bytes of the file."""
    import _complexes
    from test_complex_model import CRAFTED
    from treelat.mozes import generate_mozes_complex

    docs = {}
    for p, l in itertools.combinations(PRIMES, 2):
        docs[f"mozes {p},{l}"] = generate_mozes_complex(p, l)
    for name in SMALL:
        docs[name] = getattr(_complexes, f"{name}_doc")()
    for m, k in CYCLES:
        docs[f"C{m}xC{k}"] = _complexes.product_doc(cycle(m), cycle(k))
    for name, _, text in CRAFTED:
        docs[f"invalid {name}"] = text
    docs["unparsed json"] = "{not json"
    for seed in SEEDS:
        for i, text in enumerate(_complexes.random_batch_documents(seed)):
            docs[f"random {seed}.{i}"] = text
    out = {name: text.encode("utf-8") for name, text in docs.items()}
    out["unparsed utf-8"] = b'{"vertices": ["\xff"]}'
    return out


def commands(name: str) -> list[list[str]]:
    """The argument lists run on the document name, with the path last."""
    flags = ((), ("--json",))
    argvs = [[cmd, *flag] for cmd in ("validate", "analyze", "verify") for flag in flags]
    if name in SMALL:
        argvs += [["export", "--what", what, *flag] for what in EXPORTS for flag in flags]
    return argvs


def digests() -> dict[str, str]:
    """The manifest this checkout gives: "document | command" -> sha256.

    main builds its parser on every call, which would take most of the
    time here, so one parser serves every call: parse_args leaves the
    parser as it is."""
    from treelat import cli

    parser = cli.make_parser()
    table = {}
    with tempfile.TemporaryDirectory() as tmp, unittest.mock.patch.object(
        cli, "make_parser", lambda: parser
    ):
        path = Path(tmp) / "doc.json"
        for name, data in documents().items():
            path.write_bytes(data)
            for argv in commands(name):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main([*argv, str(path)])
                digest = hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode())
                table[f"{name} | {' '.join(argv)}"] = digest.hexdigest()
    return table


def read_manifest() -> dict[str, str]:
    lines = MANIFEST.read_text(encoding="utf-8").splitlines()
    return dict(line.rsplit(" = ", 1) for line in lines)


def test_every_report_matches_the_manifest():
    got, want = digests(), read_manifest()
    assert list(got) == list(want), "the documents or commands differ from the manifest"
    changed = [key for key in want if got[key] != want[key]]
    assert changed == []


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    MANIFEST.write_text("".join(f"{k} = {v}\n" for k, v in digests().items()), encoding="utf-8")
