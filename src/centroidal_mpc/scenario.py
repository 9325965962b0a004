"""Scenario files: a strict key-value format describing one closed-loop run.

The lines before the first section header hold format_version; then come
[physical], [mpc], [simulation], one [contact NAME] per planned contact and
any number of [disturbance] sections.  Keys carry their unit in the name.
One tokenizer, `_sections`, splits the text for both `parse_scenario` and
`apply_overrides`, and every key is read through one table, `_KEYS`.
Unknown sections and keys, missing required keys and bad values (empty,
malformed, not finite or out of range) are rejected with their line number;
all semantic complaints are reported together.
"""

from __future__ import annotations

import hashlib
import math
import re
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
    name: str  # "" for the lines before the first header
    line: int
    entries: list  # (key, value, line)

    @property
    def title(self) -> str:
        return f"section [{self.name}]" if self.name else "the top level"


def _sections(text: str) -> list:
    """Every section of `text` in file order, the root section "" first."""
    sections = [_Section("", 0, [])]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            sections.append(_Section(line[1:-1].strip(), lineno, []))
        elif "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            sections[-1].entries.append((key, value, lineno))
        else:
            raise ScenarioError([f"line {lineno}: expected 'key = value', got {raw.strip()!r}"])
    return sections


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


def _positive(value: str, count: int = 0):
    numbers = _number(value, count)
    if np.any(numbers <= 0):
        raise ValueError("must be positive")
    return numbers


def _integer(value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError("expects an integer") from None


def _count(value: str) -> int:
    number = _integer(value)
    if number < 1:
        raise ValueError("must be at least 1")
    return number


def _version(value: str) -> int:
    if _integer(value) != FORMAT_VERSION:
        raise ValueError(f"must be {FORMAT_VERSION}")
    return FORMAT_VERSION


def _boolean(value: str) -> bool:
    low = value.lower()
    if low not in ("true", "yes", "1", "false", "no", "0"):
        raise ValueError("expects true/false")
    return low in ("true", "yes", "1")


def _text(value: str) -> str:
    if not value:
        raise ValueError("expects a value")
    return value


def _window(value: str) -> tuple:
    start, end = _number(value, count=2)
    if start >= end:
        raise ValueError("must start before it ends")
    return float(start), float(end)


_VECTOR = partial(_number, count=3)
_CONTACT_NAME = re.compile(r"[A-Za-z0-9_.-]+")
_REQUIRED = object()
_REPEATED = object()

# Section -> key -> (parser, default).  A default is scenario text, parsed
# like a value from the file; None leaves an absent key as None.  Repeated
# keys read as a list of (value, line) pairs.
_KEYS = {
    "": {"format_version": (_version, _REQUIRED)},
    "physical": {
        "mass_kg": (_positive, _REQUIRED),
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
        "duration_s": (_positive, _REQUIRED),
        "substeps": (_count, "10"),
        "output_dir": (_text, None),
        "disturbances_enabled": (_boolean, "true"),
    },
    "contact": {
        "position_m": (_VECTOR, _REQUIRED),
        "yaw_rad": (_number, "0"),
        "surface_m": (partial(_positive, count=2), None),
        "corner_m": (_VECTOR, _REPEATED),
        "active_s": (_window, _REPEATED),
    },
    "disturbance": {
        "t_start_s": (_number, _REQUIRED),
        "duration_s": (_positive, _REQUIRED),
        "force_n": (_VECTOR, _REQUIRED),
        "estimated_force_n": (_VECTOR, None),  # the true force when absent
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
            problems.append(f"line {line}: unknown key {key!r} in {section.title}")
        elif table[key][1] is _REPEATED:
            parsed = _parse(table[key][0], key, value, line, problems)
            if parsed is not None:
                values[key].append((parsed, line))
        elif key in values:
            problems.append(f"line {line}: duplicate key {key!r} in {section.title}")
        else:
            values[key] = _parse(table[key][0], key, value, line, problems)
    for key, (parser, default) in table.items():
        if key in values:
            continue
        if default is _REQUIRED:
            problems.append(f"{section.title}: missing required key {key!r}")
        absent = default in (None, _REQUIRED)
        values[key] = None if absent else _parse(parser, key, default, section.line, problems)
    return values


def parse_scenario(text: str, name: str = "scenario") -> ScenarioConfig:
    """Parse and validate scenario text; raises ScenarioError with line numbers."""
    problems: list = []
    root, *sections = _sections(text)
    _read(_KEYS[""], root, problems)

    by_name: dict = {}
    contacts_s: list = []
    disturbances_s: list = []
    for sec in sections:
        if sec.name in ("physical", "mpc", "simulation"):
            if sec.name in by_name:
                problems.append(f"line {sec.line}: duplicate section [{sec.name}]")
            by_name[sec.name] = sec
        elif sec.name.split(None, 1)[:1] == ["contact"]:
            label = sec.name[len("contact") :].strip()
            if not _CONTACT_NAME.fullmatch(label):
                problems.append(
                    f"line {sec.line}: contact name {label!r} must be one or more of "
                    "A-Z a-z 0-9 _ . -"
                )
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
    mass, duration = phys["mass_kg"], sim["duration_s"]

    contacts: list = []
    seen_labels: set = set()
    for label, sec in contacts_s:
        values = _read(_KEYS["contact"], sec, problems)
        if label in seen_labels:
            problems.append(f"line {sec.line}: duplicate contact name {label!r}")
        seen_labels.add(label)
        # A key given with a bad value is already reported at its line.
        given = {key for key, _, _ in sec.entries}
        dims = values["surface_m"]
        corners = tuple(corner for corner, _ in values["corner_m"])
        if dims is not None and corners:
            problems.append(
                f"section [contact {label}]: give either surface_m or corner_m lines, not both"
            )
        geometry = None
        if dims is not None:
            geometry = ContactGeometry.rectangle(dims[0], dims[1])
        elif corners:
            geometry = ContactGeometry(corners)
        elif not given & {"surface_m", "corner_m"}:
            problems.append(
                f"section [contact {label}]: needs surface_m or at least one corner_m"
            )
        windows = tuple(window for window, _ in values["active_s"])
        if "active_s" not in given:
            problems.append(f"section [contact {label}]: needs at least one active_s window")
        pos, yaw = values["position_m"], values["yaw_rad"]
        if pos is not None and yaw is not None and geometry is not None and windows:
            try:
                contacts.append(
                    NominalContact(label, pos, _yaw_matrix(yaw), geometry, windows)
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
    # a ratio that overflows to inf is no integer either
    if not math.isfinite(n_steps) or abs(n_steps - round(n_steps)) > 1e-9:
        raise ScenarioError(
            [f"duration_s {duration} must be an integer multiple of period_s {period}"]
        )
    if round(n_steps) < 1:
        raise ScenarioError([f"duration_s {duration} is shorter than one period_s {period}"])

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
    """Rewrite scenario text with 'section.key=value' overrides, in order.

    Works on [physical], [mpc] and [simulation] only, and the key must be one
    the section accepts, with a value its parser accepts.  The value replaces
    the key's line in the section, or is inserted after the section's last
    entry when the key is absent.
    """
    lines = text.splitlines()
    for item in overrides:
        path, eq, value = item.partition("=")
        section, dot, key = (part.strip() for part in path.partition("."))
        value = value.strip()
        if not (eq and dot):
            raise ScenarioError([f"override {item!r} must look like section.key=value"])
        if len(value.splitlines()) > 1:
            # it would write lines of its own into the text
            raise ScenarioError([f"override {item!r}: the value holds a line break"])
        if section not in ("physical", "mpc", "simulation"):
            raise ScenarioError(
                [f"override {item!r}: only physical/mpc/simulation keys can be overridden"]
            )
        if key not in _KEYS[section]:
            raise ScenarioError([f"override {item!r}: unknown key {key!r} in section [{section}]"])
        try:
            _KEYS[section][key][0](value)
        except ValueError as exc:
            raise ScenarioError([f"override {item!r}: key {key!r} {exc}"]) from None
        target = next((s for s in _sections("\n".join(lines)) if s.name == section), None)
        if target is None:
            raise ScenarioError([f"override {section}.{key}: section [{section}] not present"])
        hits = [line for name, _, line in target.entries if name == key]
        if hits:
            lines[hits[0] - 1] = f"{key} = {value}"
        else:
            lines.insert(target.entries[-1][2] if target.entries else target.line,
                         f"{key} = {value}")
    return "\n".join(lines) + "\n"
