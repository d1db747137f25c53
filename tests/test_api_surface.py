"""Every def in src/treelat is named outside its own body, by live code in
src/ (not __init__.py: a re-export calls nothing), perfbench/ or benchmarks/,
through an attribute, an identifier in a string (split at dots) or, for a
top-level def, a name.  Dead defs, and methods of dead classes, are dropped until nothing
changes, so what only dead code names goes too."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Named by no program, kept on purpose.
ALLOWED = {
    "mozes.Quaternion.conjugate": "quaternion arithmetic: the inverse up to the norm",
    "mozes.Quaternion.norm": "quaternion arithmetic: p and l are the norms of the generators",
}


def _refs(tree):
    found = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Name):
            found.add(("name", sub.id))
        elif isinstance(sub, ast.Attribute):
            found.add(("attr", sub.attr))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.update(("str", part) for part in sub.value.split(".") if part.isidentifier())
    return found


def unnamed_defs(root=ROOT):
    nodes, places = {}, []  # key: (name, class key or None); (owner key or None, refs)

    def split(body, owner, prefix):
        for stmt in body:
            is_def = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if not is_def or owner and stmt.name.startswith("__") and stmt.name.endswith("__"):
                places.append((owner, _refs(stmt)))
                continue
            key = f"{prefix}.{stmt.name}"
            nodes[key] = (stmt.name, owner)
            if isinstance(stmt, ast.ClassDef):
                places.append((key, set().union(*map(_refs, stmt.decorator_list + stmt.bases))))
                split(stmt.body, key, key)
            else:
                places.append((key, _refs(stmt)))

    for path in sorted(root.glob("src/treelat/*.py")):
        if path.name != "__init__.py":
            split(ast.parse(path.read_text()).body, None, path.stem)
    for path in sorted(root.glob("perfbench/*.py")) + sorted(root.glob("benchmarks/*.py")):
        places.append((None, _refs(ast.parse(path.read_text()))))
    live = set(nodes)
    while True:
        named = {}
        for owner, refs in places:
            for kind, name in refs if owner is None or owner in live else ():
                named.setdefault(name, set()).add((kind, owner))

        def kept(key):
            name, cls = nodes[key]
            uses = [owner for kind, owner in named.get(name, ()) if cls is None or kind != "name"]
            return (cls is None or cls in live) and any(owner != key for owner in uses)

        keep = set(filter(kept, live))
        if keep == live:
            return set(nodes) - live
        live = keep


def test_every_def_in_src_is_named_by_live_code():
    assert unnamed_defs() == set(ALLOWED)


def test_the_scan_drops_what_only_dead_code_names(tmp_path):
    (tmp_path / "src" / "treelat").mkdir(parents=True)
    (tmp_path / "src" / "treelat" / "__init__.py").write_text("from treelat.m import dead\n")
    (tmp_path / "src" / "treelat" / "m.py").write_text(
        "def helper():\n    return helper\n\n"
        "def dead():\n    return helper()\n\n"
        "class K:\n    def used(self):\n        return 1\n\n"
        "    def gone(self):\n        return self.used()\n\n"
        "def main():\n    return K().used()\n\n"
        "TABLE = ('main',)\n"
    )
    assert unnamed_defs(tmp_path) == {"m.dead", "m.helper", "m.K.gone"}
