"""Scenario files: a strict key-value format describing one closed-loop run.

Sections: [physical], [mpc], [simulation], one [contact NAME] per planned
contact and any number of [disturbance] sections.  Keys carry their unit in
the name.  Unknown sections or keys are rejected with their line number, as
are missing required keys; all semantic complaints are reported together.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .controller import MpcOptions
from .model import ContactGeometry, PhysicalParams
from .plan import ContactPlan, NominalContact
from .solver import SolverOptions
from .transcription import ContactBox, Weights

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

    def active(self, t: float) -> bool:
        return self.t_start <= t < self.t_start + self.duration


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


class _Section:
    def __init__(self, name: str, line: int):
        self.name = name
        self.line = line
        self.entries: list = []  # (key, value, line)

    def all(self, key: str):
        return [(v, ln) for k, v, ln in self.entries if k == key]

    def get(self, key: str, problems: list, required: bool = False, default=None):
        hits = self.all(key)
        if not hits:
            if required:
                problems.append(f"section [{self.name}]: missing required key {key!r}")
            return default
        if len(hits) > 1:
            problems.append(
                f"line {hits[1][1]}: duplicate key {key!r} in section [{self.name}]"
            )
        return hits[0][0]

    def check_known(self, known: set, repeatable: set, problems: list):
        for key, _, ln in self.entries:
            if key not in known and key not in repeatable:
                problems.append(f"line {ln}: unknown key {key!r} in section [{self.name}]")


def _tokenize(text: str):
    """Yield (kind, payload, line_number); kind is 'section' or 'pair'."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            yield "section", line[1:-1].strip(), lineno
            continue
        if "=" not in line:
            raise ScenarioError([f"line {lineno}: expected 'key = value', got {raw.strip()!r}"])
        key, value = line.split("=", 1)
        yield "pair", (key.strip(), value.strip()), lineno


def _parse_float(value: str, key: str, line: int, problems: list) -> float | None:
    try:
        return float(value)
    except ValueError:
        problems.append(f"line {line}: key {key!r} expects a number, got {value!r}")
        return None


def _parse_floats(value: str, count: int, key: str, line: int, problems: list):
    parts = value.split()
    if len(parts) != count:
        problems.append(f"line {line}: key {key!r} expects {count} numbers, got {value!r}")
        return None
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        problems.append(f"line {line}: key {key!r} expects numbers, got {value!r}")
        return None


def _parse_int(value: str, key: str, line: int, problems: list) -> int | None:
    try:
        return int(value)
    except ValueError:
        problems.append(f"line {line}: key {key!r} expects an integer, got {value!r}")
        return None


def _parse_bool(value: str, key: str, line: int, problems: list) -> bool | None:
    low = value.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    problems.append(f"line {line}: key {key!r} expects true/false, got {value!r}")
    return None


_PHYSICAL_KEYS = {"mass_kg", "gravity_mps2", "com_height_nominal_m"}
_MPC_KEYS = {
    "horizon_knots",
    "period_s",
    "friction_mu",
    "normal_force_min_n",
    "normal_force_max_n",
    "box_half_x_m",
    "box_half_y_m",
    "weight_com_tracking",
    "weight_ang_momentum",
    "weight_force_reg",
    "weight_force_rate",
    "weight_contact_reg",
    "max_iterations",
    "kkt_tolerance",
    "constraint_tolerance",
}
_SIM_KEYS = {"duration_s", "substeps", "output_dir", "disturbances_enabled"}
_CONTACT_KEYS = {"position_m", "yaw_rad", "surface_m"}
_CONTACT_REPEAT = {"corner_m", "active_s"}
_DIST_KEYS = {"t_start_s", "duration_s", "force_n", "estimated_force_n", "application"}


def parse_scenario(text: str, name: str = "scenario") -> ScenarioConfig:
    """Parse and validate scenario text; raises ScenarioError with line numbers."""
    problems: list = []
    sections: list = []
    version_seen = None
    current = None
    for kind, payload, lineno in _tokenize(text):
        if kind == "section":
            current = _Section(payload, lineno)
            sections.append(current)
            continue
        key, value = payload
        if current is None:
            if key == "format_version":
                version_seen = (_parse_int(value, key, lineno, problems), lineno)
            else:
                problems.append(
                    f"line {lineno}: key {key!r} before any section (only format_version allowed)"
                )
            continue
        current.entries.append((key, value, lineno))

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

    phys = by_name["physical"]
    phys.check_known(_PHYSICAL_KEYS, set(), problems)
    mass = phys.get("mass_kg", problems, required=True)
    gravity = phys.get("gravity_mps2", problems, default="0 0 -9.81")
    com_height = phys.get("com_height_nominal_m", problems, required=True)
    mass_v = _parse_float(mass, "mass_kg", phys.line, problems) if mass else None
    gravity_v = _parse_floats(gravity, 3, "gravity_mps2", phys.line, problems)
    height_v = (
        _parse_float(com_height, "com_height_nominal_m", phys.line, problems)
        if com_height
        else None
    )
    if mass_v is not None and mass_v <= 0.0:
        problems.append(f"section [physical]: mass_kg must be positive, got {mass_v}")

    mpc_s = by_name["mpc"]
    mpc_s.check_known(_MPC_KEYS, set(), problems)

    def mpc_num(key, default, parser=_parse_float):
        raw = mpc_s.get(key, problems)
        if raw is None:
            return default
        return parser(raw, key, mpc_s.line, problems)

    horizon = mpc_num("horizon_knots", 30, _parse_int)
    period = mpc_num("period_s", 0.1)
    mu = mpc_num("friction_mu", 0.8)
    f_min = mpc_num("normal_force_min_n", 0.0)
    f_max = mpc_num("normal_force_max_n", None)
    box_x = mpc_num("box_half_x_m", 0.15)
    box_y = mpc_num("box_half_y_m", 0.15)
    w_com = mpc_num("weight_com_tracking", 100.0)
    w_ang = mpc_num("weight_ang_momentum", 10.0)
    w_force = mpc_num("weight_force_reg", 0.1)
    w_rate = mpc_num("weight_force_rate", 0.01)
    w_contact = mpc_num("weight_contact_reg", 1000.0)
    max_iter = mpc_num("max_iterations", 100, _parse_int)
    kkt_tol = mpc_num("kkt_tolerance", 1e-6)
    con_tol = mpc_num("constraint_tolerance", 1e-7)

    sim_s = by_name["simulation"]
    sim_s.check_known(_SIM_KEYS, set(), problems)
    duration_raw = sim_s.get("duration_s", problems, required=True)
    duration = (
        _parse_float(duration_raw, "duration_s", sim_s.line, problems) if duration_raw else None
    )
    substeps = sim_s.get("substeps", problems, default="10")
    substeps_v = _parse_int(substeps, "substeps", sim_s.line, problems)
    output_dir = sim_s.get("output_dir", problems)
    dist_enabled_raw = sim_s.get("disturbances_enabled", problems, default="true")
    dist_enabled = _parse_bool(dist_enabled_raw, "disturbances_enabled", sim_s.line, problems)
    if substeps_v is not None and substeps_v < 1:
        problems.append(f"section [simulation]: substeps must be >= 1, got {substeps_v}")
    if duration is not None and duration <= 0.0:
        problems.append(f"section [simulation]: duration_s must be positive, got {duration}")

    contacts: list = []
    seen_labels: set = set()
    for label, sec in contacts_s:
        sec.check_known(_CONTACT_KEYS, _CONTACT_REPEAT, problems)
        if label in seen_labels:
            problems.append(f"line {sec.line}: duplicate contact name {label!r}")
        seen_labels.add(label)
        pos_raw = sec.get("position_m", problems, required=True)
        pos = (
            _parse_floats(pos_raw, 3, "position_m", sec.line, problems)
            if pos_raw
            else None
        )
        yaw_raw = sec.get("yaw_rad", problems, default="0")
        yaw = _parse_float(yaw_raw, "yaw_rad", sec.line, problems)
        surface_raw = sec.get("surface_m", problems)
        corner_rows = sec.all("corner_m")
        if surface_raw is not None and corner_rows:
            problems.append(
                f"section [contact {label}]: give either surface_m or corner_m lines, not both"
            )
        geometry = None
        if surface_raw is not None:
            dims = _parse_floats(surface_raw, 2, "surface_m", sec.line, problems)
            if dims is not None:
                if np.any(dims <= 0):
                    problems.append(
                        f"section [contact {label}]: surface_m dimensions must be positive"
                    )
                else:
                    geometry = ContactGeometry.rectangle(dims[0], dims[1])
        elif corner_rows:
            corners = []
            for value, ln in corner_rows:
                corner = _parse_floats(value, 3, "corner_m", ln, problems)
                if corner is not None:
                    corners.append(corner)
            if corners:
                geometry = ContactGeometry(tuple(corners))
        else:
            problems.append(
                f"section [contact {label}]: needs surface_m or at least one corner_m"
            )
        windows = []
        for value, ln in sec.all("active_s"):
            pair = _parse_floats(value, 2, "active_s", ln, problems)
            if pair is not None:
                if pair[0] >= pair[1]:
                    problems.append(f"line {ln}: active_s window [{pair[0]}, {pair[1]}) is empty")
                else:
                    windows.append((float(pair[0]), float(pair[1])))
        if not windows:
            problems.append(f"section [contact {label}]: needs at least one active_s window")
        if pos is not None and yaw is not None and geometry is not None and windows:
            try:
                contacts.append(
                    NominalContact(label, pos, _yaw_matrix(yaw), geometry, tuple(windows))
                )
            except ValueError as exc:
                problems.append(f"section [contact {label}]: {exc}")

    events: list = []
    for sec in disturbances_s:
        sec.check_known(_DIST_KEYS, set(), problems)
        t0_raw = sec.get("t_start_s", problems, required=True)
        dur_raw = sec.get("duration_s", problems, required=True)
        force_raw = sec.get("force_n", problems, required=True)
        est_raw = sec.get("estimated_force_n", problems)
        app = sec.get("application", problems, default="com")
        if app not in (None, "com"):
            problems.append(
                f"section [disturbance] at line {sec.line}: only application = com is supported"
            )
        t0 = _parse_float(t0_raw, "t_start_s", sec.line, problems) if t0_raw else None
        dur = _parse_float(dur_raw, "duration_s", sec.line, problems) if dur_raw else None
        force = (
            _parse_floats(force_raw, 3, "force_n", sec.line, problems) if force_raw else None
        )
        est = force
        if est_raw is not None:
            est = _parse_floats(est_raw, 3, "estimated_force_n", sec.line, problems)
        if dur is not None and dur <= 0:
            problems.append(f"section [disturbance] at line {sec.line}: duration_s must be > 0")
        if None not in (t0, dur) and force is not None and est is not None:
            events.append(DisturbanceEvent(t0, dur, force, est))

    if problems:
        raise ScenarioError(problems)

    if f_max is None:
        f_max = 3.0 * mass_v * float(np.linalg.norm(gravity_v))
    try:
        params = PhysicalParams(mass=mass_v, gravity=gravity_v, com_height_nominal=height_v)
        plan = ContactPlan(tuple(contacts), duration)
        weights = Weights(
            force_reg=w_force,
            force_rate=w_rate,
            ang_momentum=w_ang,
            com_tracking=w_com,
            contact_reg=w_contact,
        )
        mpc = MpcOptions(
            horizon_knots=horizon,
            period=period,
            weights=weights,
            friction_mu=mu,
            normal_force_min=f_min,
            normal_force_max=f_max,
            box=ContactBox.planar(box_x, box_y),
            solver=SolverOptions(
                max_iterations=max_iter,
                kkt_tolerance=kkt_tol,
                constraint_tolerance=con_tol,
            ),
        )
    except (ValueError, KeyError) as exc:
        raise ScenarioError([str(exc)]) from exc

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
        mpc=mpc,
        duration=duration,
        substeps=substeps_v,
        disturbances=tuple(events),
        disturbances_enabled=bool(dist_enabled),
        output_dir=output_dir,
        config_hash=digest,
    )


def apply_overrides(text: str, overrides) -> str:
    """Rewrite scenario text with 'section.key=value' overrides.

    The key must already exist in the section (or is appended if the section
    exists and the key is valid-for-overriding); works on [physical], [mpc]
    and [simulation] only.
    """
    parsed = []
    for item in overrides:
        if "=" not in item:
            raise ScenarioError([f"override {item!r} must look like section.key=value"])
        path, value = item.split("=", 1)
        if "." not in path:
            raise ScenarioError([f"override {item!r} must look like section.key=value"])
        section, key = path.split(".", 1)
        section = section.strip()
        if section not in ("physical", "mpc", "simulation"):
            raise ScenarioError(
                [f"override {item!r}: only physical/mpc/simulation keys can be overridden"]
            )
        parsed.append((section, key.strip(), value.strip()))

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
