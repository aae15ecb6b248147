"""Properties of the package source itself."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "barydd")


def modules(directory=SRC):
    """(file name, syntax tree) of each module in ``directory``, by default
    the package."""
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name)) as fh:
                yield name, ast.parse(fh.read(), name)


def test_no_bare_assert():
    # python -O strips assert statements; the package's checks raise
    found = []
    for name, tree in modules():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def names_read(tree):
    """Every name the module reads, in its code or in a string annotation
    such as ``-> "RatFun"``."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for sub in ast.walk(annotation) if annotation is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                read |= {n.id for n in ast.walk(ast.parse(sub.value, mode="eval")) if isinstance(n, ast.Name)}
    return read


def test_no_unused_import():
    # __init__.py imports names to re-export them
    found = []
    for name, tree in modules():
        if name == "__init__.py":
            continue
        read = names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            found += [f"{name}:{node.lineno} {b}" for b in bound if b not in read]
    assert found == []


def calls_by_name():
    """name -> [(positional count, keyword names)] of every call in the
    package and the benchmark; None stands for a call through ``*args`` or
    ``**kwargs``, which counts as passing every parameter."""
    calls = {}
    for directory in (SRC, os.path.join(ROOT, "bench")):
        for _, tree in modules(directory):
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                keywords = {k.arg for k in node.keywords}
                starred = None in keywords or any(isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(name, []).append(None if starred else (len(node.args), keywords))
    return calls


def test_every_default_is_passed():
    # a parameter whose default no call in the package or the benchmark
    # overrides is an option nobody uses, even when a test overrides it; a
    # class name stands for its __init__, and a method's calls skip self
    calls = calls_by_name()
    found = []
    for name, tree in modules():
        defs = [(node, node.name, 0) for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                    called = cls.name if node.name == "__init__" else node.name
                    defs.append((node, called, 0 if static else 1))
        for node, called, skip in defs:
            args = node.args
            positional = (args.posonlyargs + args.args)[skip:]
            defaulted = [(i, a.arg) for i, a in enumerate(positional)][len(positional) - len(args.defaults):]
            defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for index, param in defaulted:
                if not any(
                    call is None or param in call[1] or (index is not None and call[0] > index)
                    for call in calls.get(called, [])
                ):
                    found.append(f"{name}:{node.lineno} {node.name}({param})")
    assert found == []


def names_used(tree, strings=False):
    """Every name and attribute name the module reads; with ``strings``
    also every string constant, since ``bench/spans.py`` names the
    functions it wraps by string."""
    read = names_read(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def test_no_public_name_only_tests_read():
    # a public function, class or method that neither the package (apart
    # from the re-exports of __init__.py) nor the benchmark reads is code
    # that only the tests run, and belongs in tests/
    read = set()
    for name, tree in modules():
        if name != "__init__.py":
            read |= names_used(tree)
    for _, tree in modules(os.path.join(ROOT, "bench")):
        read |= names_used(tree, strings=True)
    found = []
    for name, tree in modules():
        for top in tree.body:
            for node in [top] + (top.body if isinstance(top, ast.ClassDef) else []):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                    if node.name not in read:
                        found.append(f"{name}:{node.lineno} {node.name}")
    assert found == []


def test_one_exact_linear_algebra():
    # exact elimination lives in linalg, in integers: only linalg takes an
    # lcm, and no module keeps a Fraction Gauss-Jordan beside it
    found = []
    for name, tree in modules():
        for node in ast.walk(tree):
            takes_lcm = isinstance(node, ast.Attribute) and node.attr == "lcm"
            takes_lcm |= isinstance(node, ast.ImportFrom) and any(a.name == "lcm" for a in node.names)
            if takes_lcm and name != "linalg.py":
                found.append(f"{name}:{node.lineno} takes lcm")
            elif isinstance(node, ast.FunctionDef) and node.name in ("rref", "inverse"):
                found.append(f"{name}:{node.lineno} defines {node.name}")
    assert found == []


def test_no_function_local_import():
    # a module's imports run once, when it loads; the sha256 fallbacks stay
    # lazy on purpose, since a given Python has only some of them
    lazy = {
        ("cli.py", "_sha256_hex"): {"_sha2", "_sha256", "hashlib"},
    }
    found = []
    for name, tree in modules():
        inside = {}  # import node -> innermost enclosing function
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        inside[node] = func.name
        for node, func in inside.items():
            if isinstance(node, ast.Import):
                imported = {a.name for a in node.names}
            else:
                imported = {node.module or "."}
            if not imported <= lazy.get((name, func), set()):
                found.append(f"{name}:{node.lineno} {func} imports {', '.join(sorted(imported))}")
    assert found == []


def test_cpr_read_only_in_dd_engine():
    # the constraint-product view (CPR) is the DD engine's own: every other
    # module reads a coordinate from its reduced form, once
    cpr_names = {"CPR", "cpr_scale", "cpr_combine", "cpr_mul", "cpr_numerator", "cone_product", "cone_weight"}
    found = []
    for name, tree in modules():
        if name == "dd_engine.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read = {node.attr} & (cpr_names | {"cpr"})
            elif isinstance(node, ast.Name):
                read = {node.id} & cpr_names
            elif isinstance(node, ast.ImportFrom):
                read = {a.name for a in node.names} & cpr_names
            else:
                continue
            found += [f"{name}:{node.lineno} {r}" for r in read]
    assert found == []


def test_certify_reads_the_stored_form():
    # certify takes each coordinate in its stored form (a numerator over
    # pool factors): it builds no RatFun and reads no normalized
    # coordinate, and no module reads BarycentricCoords.lam, which only the
    # tests read
    found = []
    for name, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read = {node.attr} & ({"lam"} | ({"mu", "RatFun"} if name == "certify.py" else set()))
            elif isinstance(node, ast.Name) and name == "certify.py":
                read = {node.id} & {"RatFun"}
            elif isinstance(node, ast.ImportFrom) and name == "certify.py":
                read = {a.name for a in node.names} & {"RatFun"}
            else:
                continue
            found += [f"{name}:{node.lineno} {r}" for r in read]
    assert found == []
