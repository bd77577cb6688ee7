"""Guards on the package source itself."""

import ast
import tokenize
from pathlib import Path

import bvkit


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a certificate check written as
    # one would vanish; every check in the package raises explicitly instead
    paths = sorted(Path(bvkit.__file__).parent.glob("*.py"))
    assert len(paths) > 1
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_unused_imports_in_the_package():
    # a name imported and never read is dead code, often left behind when
    # its last caller was deleted; an import line marked "# noqa: F401"
    # re-exports on purpose.  The test modules are walked too.
    paths = (sorted(Path(bvkit.__file__).parent.glob("*.py"))
             + sorted(Path(__file__).parent.glob("*.py")))
    found = []
    for path in paths:
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text, str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                used |= {e.value for e in node.value.elts}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    found.append(f"{path.parent.name}/{path.name}:{alias.lineno} {name}")
    assert found == []


def test_no_unnamed_private_definitions_in_the_package():
    # a private module-level function or class, or a private method, that
    # no line of the package names is dead code, often left behind when
    # its last caller moved to a shared helper
    paths = sorted(Path(bvkit.__file__).parent.glob("*.py"))
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in paths}
    named = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                named.add(n.id)
            elif isinstance(n, ast.Attribute):
                named.add(n.attr)
            elif isinstance(n, ast.alias):
                named.add(n.name)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for fname, tree in trees.items():
        scopes = [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]
        for scope in scopes:
            for node in scope.body:
                if (isinstance(node, defs) and node.name.startswith("_")
                        and not node.name.endswith("__")
                        and node.name not in named):
                    found.append(f"{fname}:{node.lineno} {node.name}")
    assert found == []


def test_every_export_is_defined_in_the_package():
    # a name in __all__ bound to an object from elsewhere (an alias such as
    # Fraction under a second name) is a second way to reach one thing
    foreign = [name for name in bvkit.__all__
               if not getattr(getattr(bvkit, name), "__module__", "").startswith("bvkit.")]
    assert foreign == []


def test_unchecked_graded_constructor_stays_in_the_kernel():
    # _graded skips the per-term checks of GradedPolynomial.__init__, so
    # only the graded kernel, whose results (the bracket's among them)
    # are built from terms already in checked form, may name it; anything
    # that builds from outside input keeps the checked constructor
    allowed = {"graded_algebra.py"}
    found = []
    for path in sorted(Path(bvkit.__file__).parent.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text(), str(path))):
            # a Name, an Attribute or an import alias
            named = {getattr(n, key, None) for key in ("id", "attr", "name")}
            if "_graded" in named and path.name not in allowed:
                found.append(f"{path.name}:{n.lineno}")
    assert found == []


def test_only_the_pairing_loop_takes_generator_derivatives():
    # the bracket and the Koszul-Tate derivation are odd derivations that
    # pair fixed factors with the derivatives of their argument in one
    # loop, _bracket_pair; it and _bracket_factors, which takes the
    # bracket's factors, are the only readers of _derivatives, so a
    # second pairing loop cannot come back
    found = set()

    def visit(node, scope, path):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if scope is None and isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = child.name   # the top-level definition a name is in
            if isinstance(child, ast.Name) and child.id == "_derivatives":
                found.add(f"{path.name}:{scope}")
            visit(child, inner, path)

    for path in sorted(Path(bvkit.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), None, path)
    assert found == {"antibracket.py:_bracket_factors", "graded_algebra.py:_bracket_pair"}


def test_normal_form_memo_is_read_in_the_engine_only():
    # GroebnerBasis._nf keeps each monomial's normal form in a flat layout
    # that _monomial_nf writes and _nf_sum alone reads; every other module
    # sums normal forms through _nf_sum or normal_form, so the layout can
    # change in one place
    memo = {"_monomial_nf", "_nf"}
    found = []
    for path in sorted(Path(bvkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        if path.name == "polynomial_engine.py":
            readers = {f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                       and any(isinstance(n, ast.Name) and n.id == "_monomial_nf"
                               for n in ast.walk(f))}
            if readers != {"_nf_sum"}:
                found.append(f"{path.name}: _monomial_nf called by {sorted(readers)}")
            continue
        for n in ast.walk(tree):
            # a Name, an Attribute or an import alias
            named = {getattr(n, key, None) for key in ("id", "attr", "name")}
            if named & memo:
                found.append(f"{path.name}:{n.lineno}")
    assert found == []


# CPython 3.11's parser holds a module's tokens in one array that starts
# at one slot and doubles when full, allocating a token for every new
# slot; comments and blank lines are not tokens to it.
PARSER_TOKEN_STEP = 8192


def test_no_module_reaches_the_parser_token_step():
    # perfbench imports the package from source with no bytecode cache, so
    # a module of 8,192 tokens or more doubles the array to 16,384 slots
    # while it compiles: the import peak grows by about 0.3 MB and with it
    # the benchmark's peak_rss_mb, with no change in what the code does
    counts = {}
    for path in sorted(Path(bvkit.__file__).parent.glob("*.py")):
        with tokenize.open(path) as f:
            counts[path.name] = sum(1 for t in tokenize.generate_tokens(f.readline)
                                    if t.type not in (tokenize.COMMENT, tokenize.NL))
    over = {name: n for name, n in counts.items() if n >= PARSER_TOKEN_STEP}
    assert over == {}, (
        f"{over} reach {PARSER_TOKEN_STEP} tokens, where CPython 3.11's parser "
        "doubles its token buffer: compiled from source, as perfbench imports "
        "the package, such a module raises peak_rss_mb; split or shorten it")


def test_tau_image_memo_is_kept_by_tau_images_only():
    # SymmetryPresentation._images keeps each tau image once per monomial
    # order, and callers share the image dicts; only _tau_images reads or
    # fills the memo, so what it holds and when an entry is made are
    # decided in one place.  The class names it in __slots__ and __init__.
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            # an attribute, a name, an import alias or a string such as a slot
            named = {getattr(child, key, None) for key in ("id", "attr", "name", "value")}
            if "_images" in named:
                found.add(f"{path.name}:{scope}")
            visit(child, inner)

    for path in sorted(Path(bvkit.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), "")
    assert found == {"brst.py:SymmetryPresentation", "brst.py:SymmetryPresentation.__init__",
                     "brst.py:_tau_images"}


def test_only_gradient_differentiates_in_brst():
    # brst applies every vector field to a polynomial as
    # _combination(_gradient(f), field), so each polynomial is
    # differentiated once however many fields meet it; a derivative
    # called anywhere else would bring back a per-field loop
    path = Path(bvkit.__file__).parent / "brst.py"
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
            if (isinstance(child, ast.Attribute) and child.attr == "derivative"
                    and scope != "_gradient"):
                found.append(f"{scope}:{child.lineno}")
            visit(child, inner)

    tree = ast.parse(path.read_text(), str(path))
    visit(tree, "")
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "derivative"]
    assert len(calls) == 1 and found == []


def test_only_module_basis_syzygies_reads_an_engine_record():
    # the engine keeps what generates the syzygies of its inputs in
    # zeros, then syzygies; ModuleBasis.syzygies alone reads it, so
    # syzygy_basis and check_acyclic take the one record through one
    # reader.  A call of a method named syzygies reads nothing.
    found = set()

    def visit(node, scope, path):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            # the called method itself is not read
            children = [node.func.value, *node.args, *(k.value for k in node.keywords)]
        else:
            if isinstance(node, ast.Attribute) and node.attr in ("syzygies", "zeros"):
                found.add(f"{path.name}:{scope}")
            children = ast.iter_child_nodes(node)
        for child in children:
            visit(child, scope, path)

    for path in sorted(Path(bvkit.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), "", path)
    readers = {s for s in found if not s.startswith("polynomial_engine.py:_Engine.")}
    assert readers == {"polynomial_engine.py:ModuleBasis.syzygies"}


def test_the_engine_has_no_block_order():
    # the term key orders one block: _term_key takes the order alone,
    # and neither _Engine nor any call of it takes a split
    paths = sorted(Path(bvkit.__file__).parent.glob("*.py"))
    found = []
    for path in paths:
        for n in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(n, ast.FunctionDef) and n.name == "_term_key":
                if len(n.args.args) != 1:
                    found.append(f"{path.name}:{n.lineno} def _term_key")
            elif isinstance(n, ast.ClassDef) and n.name == "_Engine":
                init = next(f for f in n.body
                            if isinstance(f, ast.FunctionDef) and f.name == "__init__")
                if "split" in [a.arg for a in init.args.args]:
                    found.append(f"{path.name}:{init.lineno} _Engine(split)")
            elif isinstance(n, ast.Call):
                name = getattr(n.func, "id", getattr(n.func, "attr", None))
                if name == "_term_key" and len(n.args) + len(n.keywords) != 1:
                    found.append(f"{path.name}:{n.lineno} _term_key call")
                if name == "_Engine" and any(k.arg == "split" for k in n.keywords):
                    found.append(f"{path.name}:{n.lineno} _Engine(split=)")
    assert found == []


def test_engine_certificates_are_checked_without_combination():
    # lifts, membership queries, syzygies and the Groebner matrix are
    # checked in the engine's own ints (_certifies); _combination, which
    # builds Fraction vectors, stays for the Fraction-level jobs
    path = Path(bvkit.__file__).parent / "polynomial_engine.py"
    tree = ast.parse(path.read_text(), str(path))
    scopes = {n.name: n for n in tree.body
              if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    found = {}
    for name in ("ModuleBasis", "syzygy_basis", "groebner_basis"):
        called = {n.id for n in ast.walk(scopes[name]) if isinstance(n, ast.Name)}
        found[name] = sorted(called & {"_combination", "_certifies"})
    assert found == {name: ["_certifies"]
                     for name in ("ModuleBasis", "syzygy_basis", "groebner_basis")}
