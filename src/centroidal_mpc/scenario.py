"""Scenario files: a strict key-value format describing one closed-loop run.

Sections: [physical], [mpc], [simulation], one [contact NAME] per planned
contact and any number of [disturbance] sections.  Keys carry their unit in
the name.  Every key is read through one table, `_KEYS`.  Unknown sections
and keys, missing required keys and bad values (empty, malformed or not
finite) are rejected with their line number; all semantic complaints are
reported together.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .controller import MpcOptions
from .model import ContactGeometry, PhysicalParams
from .plan import ContactPlan, NominalContact
from .solver import SolverOptions
from .transcription import ContactBox, FrictionPyramid, Weights

FORMAT_VERSION = 1


class ScenarioError(ValueError):
    """Raised on malformed or semantically invalid scenario text."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class DisturbanceEvent:
    """One timed push: true force applied to the plant, estimate fed to the MPC."""

    t_start: float
    duration: float
    force: np.ndarray
    estimated_force: np.ndarray

    def active(self, t):
        """Whether t lies in [t_start, t_start + duration); elementwise for an array."""
        return (self.t_start <= t) & (t < self.t_start + self.duration)


@dataclass
class ScenarioConfig:
    """Everything one simulation run needs, parsed and validated."""

    name: str
    params: PhysicalParams
    plan: ContactPlan
    mpc: MpcOptions
    duration: float
    substeps: int
    disturbances: tuple
    disturbances_enabled: bool
    output_dir: str | None
    config_hash: str

    def active_events(self):
        return self.disturbances if self.disturbances_enabled else ()


def _yaw_matrix(yaw: float) -> np.ndarray:
    c, s = np.cos(yaw), np.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass
class _Section:
    name: str
    line: int
    entries: list  # (key, value, line)


def _number(value: str, count: int = 0):
    """One finite float, or an array of `count` of them."""
    parts = value.split()
    if len(parts) != max(count, 1):
        raise ValueError(f"expects {count} numbers" if count else "expects a number")
    try:
        numbers = [float(p) for p in parts]
    except ValueError:
        raise ValueError("expects numbers" if count else "expects a number") from None
    if not all(map(math.isfinite, numbers)):
        raise ValueError("must be finite")
    return np.array(numbers) if count else numbers[0]


def _integer(value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError("expects an integer") from None


def _boolean(value: str) -> bool:
    low = value.lower()
    if low not in ("true", "yes", "1", "false", "no", "0"):
        raise ValueError("expects true/false")
    return low in ("true", "yes", "1")


def _text(value: str) -> str:
    if not value:
        raise ValueError("expects a value")
    return value


_PAIR = partial(_number, count=2)
_VECTOR = partial(_number, count=3)
_REQUIRED = object()
_REPEATED = object()

# Section -> key -> (parser, default).  A default is scenario text, parsed
# like a value from the file; None leaves an absent key as None.  Repeated
# keys read as a list of (value, line) pairs.
_KEYS = {
    "physical": {
        "mass_kg": (_number, _REQUIRED),
        "gravity_mps2": (_VECTOR, "0 0 -9.81"),
        "com_height_nominal_m": (_number, _REQUIRED),
    },
    "mpc": {
        "horizon_knots": (_integer, "30"),
        "period_s": (_number, "0.1"),
        "friction_mu": (_number, "0.8"),
        "normal_force_min_n": (_number, "0"),
        "normal_force_max_n": (_number, None),  # 3 m |g| when absent
        "box_half_x_m": (_number, "0.15"),
        "box_half_y_m": (_number, "0.15"),
        "weight_com_tracking": (_number, "100"),
        "weight_ang_momentum": (_number, "10"),
        "weight_force_reg": (_number, "0.1"),
        "weight_force_rate": (_number, "0.01"),
        "weight_contact_reg": (_number, "1000"),
        "max_iterations": (_integer, "100"),
        "kkt_tolerance": (_number, "1e-6"),
        "constraint_tolerance": (_number, "1e-7"),
    },
    "simulation": {
        "duration_s": (_number, _REQUIRED),
        "substeps": (_integer, "10"),
        "output_dir": (_text, None),
        "disturbances_enabled": (_boolean, "true"),
    },
    "contact": {
        "position_m": (_VECTOR, _REQUIRED),
        "yaw_rad": (_number, "0"),
        "surface_m": (_PAIR, None),
        "corner_m": (_VECTOR, _REPEATED),
        "active_s": (_PAIR, _REPEATED),
    },
    "disturbance": {
        "t_start_s": (_number, _REQUIRED),
        "duration_s": (_number, _REQUIRED),
        "force_n": (_VECTOR, _REQUIRED),
        "estimated_force_n": (_VECTOR, None),  # the true force when absent
        "application": (_text, "com"),
    },
}


def _parse(parser, key: str, value: str, line: int, problems: list):
    """parser(value), or None after adding the parser's ValueError to `problems`."""
    try:
        return parser(value)
    except ValueError as exc:
        problems.append(f"line {line}: key {key!r} {exc}, got {value!r}")
        return None


def _read(table: dict, section: _Section, problems: list) -> dict:
    """Every key of `table` mapped to its parsed value from `section`.

    Unknown, duplicate and missing required keys and bad values go to
    `problems`; a missing or bad value reads as None.
    """
    values = {key: [] for key, (_, default) in table.items() if default is _REPEATED}
    for key, value, line in section.entries:
        if key not in table:
            problems.append(f"line {line}: unknown key {key!r} in section [{section.name}]")
        elif table[key][1] is _REPEATED:
            parsed = _parse(table[key][0], key, value, line, problems)
            if parsed is not None:
                values[key].append((parsed, line))
        elif key in values:
            problems.append(f"line {line}: duplicate key {key!r} in section [{section.name}]")
        else:
            values[key] = _parse(table[key][0], key, value, line, problems)
    for key, (parser, default) in table.items():
        if key in values:
            continue
        if default is _REQUIRED:
            problems.append(f"section [{section.name}]: missing required key {key!r}")
        absent = default in (None, _REQUIRED)
        values[key] = None if absent else _parse(parser, key, default, section.line, problems)
    return values


def parse_scenario(text: str, name: str = "scenario") -> ScenarioConfig:
    """Parse and validate scenario text; raises ScenarioError with line numbers."""
    problems: list = []
    sections: list = []
    version_seen = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            sections.append(_Section(line[1:-1].strip(), lineno, []))
            continue
        if "=" not in line:
            raise ScenarioError([f"line {lineno}: expected 'key = value', got {raw.strip()!r}"])
        key, value = (part.strip() for part in line.split("=", 1))
        if sections:
            sections[-1].entries.append((key, value, lineno))
        elif key == "format_version":
            version_seen = (_parse(_integer, key, value, lineno, problems), lineno)
        else:
            problems.append(
                f"line {lineno}: key {key!r} before any section (only format_version allowed)"
            )

    if version_seen is None:
        problems.append("missing required top-level key 'format_version'")
    elif version_seen[0] is not None and version_seen[0] != FORMAT_VERSION:
        problems.append(
            f"line {version_seen[1]}: unsupported format_version {version_seen[0]} "
            f"(expected {FORMAT_VERSION})"
        )

    by_name: dict = {}
    contacts_s: list = []
    disturbances_s: list = []
    for sec in sections:
        if sec.name in ("physical", "mpc", "simulation"):
            if sec.name in by_name:
                problems.append(f"line {sec.line}: duplicate section [{sec.name}]")
            by_name[sec.name] = sec
        elif sec.name.startswith("contact"):
            label = sec.name[len("contact") :].strip()
            if not label:
                problems.append(f"line {sec.line}: contact section needs a name")
            contacts_s.append((label, sec))
        elif sec.name == "disturbance":
            disturbances_s.append(sec)
        else:
            problems.append(f"line {sec.line}: unknown section [{sec.name}]")

    for required in ("physical", "mpc", "simulation"):
        if required not in by_name:
            problems.append(f"missing required section: {required}")
    if not contacts_s:
        problems.append("missing required section: at least one [contact NAME]")
    if problems:
        raise ScenarioError(problems)

    phys, mpc, sim = (
        _read(_KEYS[s], by_name[s], problems) for s in ("physical", "mpc", "simulation")
    )
    mass = phys["mass_kg"]
    if mass is not None and mass <= 0.0:
        problems.append(f"section [physical]: mass_kg must be positive, got {mass}")
    duration = sim["duration_s"]
    if sim["substeps"] is not None and sim["substeps"] < 1:
        problems.append(f"section [simulation]: substeps must be >= 1, got {sim['substeps']}")
    if duration is not None and duration <= 0.0:
        problems.append(f"section [simulation]: duration_s must be positive, got {duration}")

    contacts: list = []
    seen_labels: set = set()
    for label, sec in contacts_s:
        values = _read(_KEYS["contact"], sec, problems)
        if label in seen_labels:
            problems.append(f"line {sec.line}: duplicate contact name {label!r}")
        seen_labels.add(label)
        dims = values["surface_m"]
        corners = tuple(corner for corner, _ in values["corner_m"])
        if dims is not None and corners:
            problems.append(
                f"section [contact {label}]: give either surface_m or corner_m lines, not both"
            )
        geometry = None
        if dims is not None:
            if np.any(dims <= 0):
                problems.append(
                    f"section [contact {label}]: surface_m dimensions must be positive"
                )
            else:
                geometry = ContactGeometry.rectangle(dims[0], dims[1])
        elif corners:
            geometry = ContactGeometry(corners)
        else:
            problems.append(
                f"section [contact {label}]: needs surface_m or at least one corner_m"
            )
        windows = []
        for pair, ln in values["active_s"]:
            if pair[0] >= pair[1]:
                problems.append(f"line {ln}: active_s window [{pair[0]}, {pair[1]}) is empty")
            else:
                windows.append((float(pair[0]), float(pair[1])))
        if not windows:
            problems.append(f"section [contact {label}]: needs at least one active_s window")
        pos, yaw = values["position_m"], values["yaw_rad"]
        if pos is not None and yaw is not None and geometry is not None and windows:
            try:
                contacts.append(
                    NominalContact(label, pos, _yaw_matrix(yaw), geometry, tuple(windows))
                )
            except ValueError as exc:
                problems.append(f"section [contact {label}]: {exc}")

    events: list = []
    for sec in disturbances_s:
        values = _read(_KEYS["disturbance"], sec, problems)
        force, estimate = values["force_n"], values["estimated_force_n"]
        if estimate is None:
            estimate = force
        events.append(DisturbanceEvent(values["t_start_s"], values["duration_s"], force, estimate))
        if values["application"] not in (None, "com"):
            problems.append(
                f"section [disturbance] at line {sec.line}: only application = com is supported"
            )
        if values["duration_s"] is not None and values["duration_s"] <= 0:
            problems.append(f"section [disturbance] at line {sec.line}: duration_s must be > 0")

    if problems:
        raise ScenarioError(problems)

    f_max = mpc["normal_force_max_n"]
    if f_max is None:
        f_max = 3.0 * mass * float(np.linalg.norm(phys["gravity_mps2"]))
    try:
        params = PhysicalParams(
            mass=mass,
            gravity=phys["gravity_mps2"],
            com_height_nominal=phys["com_height_nominal_m"],
        )
        plan = ContactPlan(tuple(contacts), duration)
        weights = Weights(
            force_reg=mpc["weight_force_reg"],
            force_rate=mpc["weight_force_rate"],
            ang_momentum=mpc["weight_ang_momentum"],
            com_tracking=mpc["weight_com_tracking"],
            contact_reg=mpc["weight_contact_reg"],
        )
        mpc_options = MpcOptions(
            horizon_knots=mpc["horizon_knots"],
            period=mpc["period_s"],
            weights=weights,
            pyramid=FrictionPyramid(mpc["friction_mu"], mpc["normal_force_min_n"], f_max),
            box=ContactBox.planar(mpc["box_half_x_m"], mpc["box_half_y_m"]),
            solver=SolverOptions(
                max_iterations=mpc["max_iterations"],
                kkt_tolerance=mpc["kkt_tolerance"],
                constraint_tolerance=mpc["constraint_tolerance"],
            ),
        )
    except (ValueError, KeyError) as exc:
        raise ScenarioError([str(exc)]) from exc

    period = mpc["period_s"]
    for event in events:
        if event.t_start < 0 or event.t_start + event.duration > duration:
            raise ScenarioError(
                [
                    f"disturbance [{event.t_start}, {event.t_start + event.duration}) "
                    f"outside simulation duration {duration}"
                ]
            )
    n_steps = duration / period
    if abs(n_steps - round(n_steps)) > 1e-9:
        raise ScenarioError(
            [f"duration_s {duration} must be an integer multiple of period_s {period}"]
        )

    digest = hashlib.sha256(text.encode()).hexdigest()
    return ScenarioConfig(
        name=name,
        params=params,
        plan=plan,
        mpc=mpc_options,
        duration=duration,
        substeps=sim["substeps"],
        disturbances=tuple(events),
        disturbances_enabled=sim["disturbances_enabled"],
        output_dir=sim["output_dir"],
        config_hash=digest,
    )


def apply_overrides(text: str, overrides) -> str:
    """Rewrite scenario text with 'section.key=value' overrides.

    Works on [physical], [mpc] and [simulation] only, and the key must be one
    the section accepts, with a value its parser accepts.  The value replaces
    the key's line in the section, or is appended to the section when the key
    is absent.
    """
    parsed = []
    for item in overrides:
        path, eq, value = item.partition("=")
        section, dot, key = (part.strip() for part in path.partition("."))
        if not (eq and dot):
            raise ScenarioError([f"override {item!r} must look like section.key=value"])
        if section not in ("physical", "mpc", "simulation"):
            raise ScenarioError(
                [f"override {item!r}: only physical/mpc/simulation keys can be overridden"]
            )
        if key not in _KEYS[section]:
            raise ScenarioError([f"override {item!r}: unknown key {key!r} in section [{section}]"])
        try:
            _KEYS[section][key][0](value.strip())
        except ValueError as exc:
            raise ScenarioError([f"override {item!r}: key {key!r} {exc}"]) from None
        parsed.append((section, key, value.strip()))

    lines = text.splitlines()
    for section, key, value in parsed:
        lines = _apply_one_override(lines, section, key, value)
    return "\n".join(lines) + "\n"


def _apply_one_override(lines, section, key, value):
    out = []
    current = None
    done = False
    insert_at = None
    for line in lines:
        stripped = line.split("#", 1)[0].strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip()
            out.append(line)
            if current == section:
                insert_at = len(out)
            continue
        if current == section and not done and "=" in stripped:
            if stripped.split("=", 1)[0].strip() == key:
                out.append(f"{key} = {value}")
                done = True
                insert_at = len(out)
                continue
        out.append(line)
        if current == section and stripped:
            insert_at = len(out)
    if not done:
        if insert_at is None:
            raise ScenarioError([f"override {section}.{key}: section [{section}] not present"])
        out.insert(insert_at, f"{key} = {value}")
    return out
