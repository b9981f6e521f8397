"""Every public function, class and method of the package has a caller in the
program: another part of ``src/passcovert``, or the benchmark under
``perfbench/``. Names only the tests reach widen the API without serving the
CLI or the harness; the exceptions are the model oracles in ``ORACLES``, which
the program never calls and some test names. The check reads the source and
runs nothing.

A name counts as used where it appears as a name, an attribute or an import
anywhere in those files other than its own definition and the package's
``__init__`` re-exports. Attributes of ``np`` and ``math`` do not count, so
``np.empty`` does not keep a method ``empty`` alive. Likewise every field of
a dataclass of the package is read as an attribute there or in ``perfbench/``,
and the README's configuration table names exactly the config keys.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "passcovert"

# closed forms of the paper's model that the tests check the solvers against
ORACLES = {
    "los_coeff": "one spherical-wave LoS coefficient, the kernel's scalar form",
    "inwg_phase": "one in-waveguide phase, the kernel's guided term",
    "inwg_vector": "the in-waveguide channel of one waveguide, for the dense-matrix oracle",
    "freespace_vector": "the free-space channel of one waveguide, for the dense-matrix oracle",
    "total_error_rate": "the warden's error rate at any threshold, beside its optimum",
    "optimal_detection": "the warden's optimal threshold and error rate in closed form",
    "forbidden_zone": "the swsp forbidden interval at one power, in closed form",
    "optimal_position": "the swsp closed-form position at one power",
    "achievable_rate": "the swsp rate at one position and power",
    "mean_rates": "the per-(scheme, value) means the paper's acceptance criteria compare",
}
_MODULES = {"np", "math"}


def _used_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id in _MODULES):
                names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _public_definitions():
    """(module, qualified name, name) of every public top-level function and
    class and of every public method of a public class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield path.stem, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield path.stem, f"{node.name}.{member.name}", member.name


def _program_names() -> set[str]:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "perfbench").glob("*.py")
    return set().union(*(_used_names(p) for p in files))


def test_every_public_name_has_a_caller():
    used = _program_names()
    unused = [f"{module}.{qualified}" for module, qualified, name in _public_definitions()
              if name not in used and name not in ORACLES]
    assert unused == []


def test_oracles_exist_and_stay_uncalled():
    # an oracle the program starts to call, or one deleted, leaves the list; one
    # that no test names either (an import alone does not count) is dead code
    defined = {qualified for _, qualified, _ in _public_definitions()}
    assert set(ORACLES) <= defined
    assert set(ORACLES) & _program_names() == set()
    in_tests = {node.id if isinstance(node, ast.Name) else node.attr
                for path in (ROOT / "tests").glob("*.py")
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, (ast.Name, ast.Attribute))}
    assert set(ORACLES) - in_tests == set()


def test_package_init_reexports_nothing():
    # callers import each name from the module that defines it, so the
    # package offers one route to every name
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert [node for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))] == []


def _dataclass_fields():
    """(class, field) of every annotated field of every dataclass in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                yield from ((node.name, item.target.id) for item in node.body
                            if isinstance(item, ast.AnnAssign))


def _attributes_read() -> set[str]:
    files = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    return {node.attr for path in files for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and not (isinstance(node.value, ast.Name) and node.value.id in _MODULES)}


def test_every_dataclass_field_is_read():
    """Every field of a dataclass in the package is read as an attribute
    somewhere in the package or the benchmark: a field nothing reads is state
    kept for nobody. The match is by name only, so a field read on one class
    covers a field of the same name on another (``ExperimentConfig.n_eff``
    would hide an unread ``n_eff`` elsewhere)."""
    read = _attributes_read()
    assert [f"{cls}.{field}" for cls, field in _dataclass_fields() if field not in read] == []


def test_readme_config_table_names_every_key():
    # the first column of the table under "## Configuration keys" holds the
    # backticked keys, one or more per row; a key added, removed or renamed in
    # ExperimentConfig without the table fails here
    section = (ROOT / "README.md").read_text().split("## Configuration keys", 1)[1]
    section = section.split("\n## ", 1)[0]
    documented = [key for line in section.splitlines() if line.startswith("| `")
                  for key in re.findall(r"`(\w+)`", line.split("|")[1])]
    keys = [field for cls, field in _dataclass_fields() if cls == "ExperimentConfig"]
    assert sorted(documented) == sorted(keys)
