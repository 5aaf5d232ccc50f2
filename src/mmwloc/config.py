"""Network configuration: physical and system parameters in linear units.

All internal computation uses linear units (watts, W/Hz, meters, radians).
dB / dBm / per-km conversions happen only at the config-parsing boundary
(see ``from_boundary_mapping``); the CLI exposes the boundary-unit keys.

The defaults correspond to a roadside mm-wave deployment: 30 dBm transmit
power, 1 GHz data bandwidth, LOS ball of 20 m, path-loss exponents 2/4,
noise at -30 dBW over the data band (the estimation-noise regime; thermal
-174 dBm/Hz remains reachable through the config boundary). In-service
ranging pilots occupy a narrow sounding band (``pilot_bandwidth``) and
angle sounding uses a short correlation window over a small calibrated
subarray (``aoa_sounding_time``, ``ue_sounding_elements``), which is what
keeps localization errors in the regime where the beam-selection /
misalignment trade-offs are visible at these SINRs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, replace

from .errors import ConfigError
from .numerics import dbm_to_watt, db_to_linear


@dataclass(frozen=True)
class NetworkConfig:
    """All physical / system parameters, linear units."""

    bs_density: float = 0.05        # BS density along the road [1/m]
    p_t: float = 1.0                # transmit power [W]
    h_b: float = 10.0               # BS height [m]
    k_pl: float = 7.3e-7            # path-loss coefficient at 1 m [-]
    alpha_los: float = 2.0          # LOS path-loss exponent
    alpha_nlos: float = 4.0         # NLOS path-loss exponent
    n_los: int = 2                  # Nakagami shape, LOS links
    n_nlos: int = 2                 # Nakagami shape, NLOS links
    d_s: float = 20.0               # LOS ball radius [m]
    bandwidth: float = 1.0e9        # data bandwidth [Hz]
    noise_psd: float = 1.0e-12      # noise PSD [W/Hz] (-30 dBW over 1 GHz)
    g0: float = 31.6227766016838    # reference omni gain (15 dBi, linear)
    eps_sidelobe: float = 0.01      # sidelobe fraction, << 1
    t_frame: float = 1.0e-3         # service-phase duration T_F [s]
    t_init: float = 1.0e-3          # initial-access duration T_I [s]
    pilot_bandwidth: float = 750.0e3  # in-service ranging pilot band [Hz]
    aoa_sounding_time: float = 3.5e-6  # per-frame angle sounding window [s]
    ue_sounding_elements: int = 4   # subarray used for angle estimation

    def __post_init__(self):
        positive = (
            "bs_density", "p_t", "h_b", "k_pl", "alpha_los", "alpha_nlos",
            "d_s", "bandwidth", "noise_psd", "g0", "eps_sidelobe",
            "t_frame", "t_init", "pilot_bandwidth", "aoa_sounding_time",
        )
        for name in positive:
            if not 0.0 < getattr(self, name) < math.inf:   # NaN fails too
                raise ConfigError(f"{name} must be positive and finite")
        if self.eps_sidelobe >= 1.0:
            raise ConfigError("eps_sidelobe must be < 1")
        if self.alpha_nlos < self.alpha_los:
            raise ConfigError("alpha_nlos must be >= alpha_los")
        for name in ("n_los", "n_nlos", "ue_sounding_elements"):
            value = getattr(self, name)
            if not (float(value).is_integer() and value >= 1):  # inf, NaN fail
                raise ConfigError(f"{name} must be a positive integer")
        # 170 is the largest N whose N! is a finite double (the Alzer eta)
        for name in ("n_los", "n_nlos"):
            if getattr(self, name) > 170:
                raise ConfigError(f"{name} must be at most 170")

    @property
    def noise_power(self) -> float:
        """Noise power over the data bandwidth, N0*B [W]."""
        return self.noise_psd * self.bandwidth

    @property
    def mean_cell_size(self) -> float:
        """Mean one-sided cell size E[d_a] = 1/(2 lambda) [m]."""
        return 1.0 / (2.0 * self.bs_density)

    def with_overrides(self, **kwargs) -> "NetworkConfig":
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        return asdict(self)


def _integral(value) -> int:
    """int(value) for an integral value; ValueError for 2.5, inf or NaN,
    which int() would truncate or fail on with OverflowError."""
    if not float(value).is_integer():
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


# Keys accepted at the config boundary, with conversion into linear fields.
# Value: (internal field, converter).
_BOUNDARY_KEYS = {
    "network.lambda_per_km": ("bs_density", lambda v: v / 1000.0),
    "network.lambda_per_m": ("bs_density", float),
    "network.p_t_dbm": ("p_t", dbm_to_watt),
    "network.h_b_m": ("h_b", float),
    "network.k_pl_db": ("k_pl", db_to_linear),
    "network.alpha_los": ("alpha_los", float),
    "network.alpha_nlos": ("alpha_nlos", float),
    "network.n_los": ("n_los", _integral),
    "network.n_nlos": ("n_nlos", _integral),
    "network.d_s_m": ("d_s", float),
    "network.bandwidth_hz": ("bandwidth", float),
    "network.noise_dbm_hz": ("noise_psd", dbm_to_watt),
    "network.g0_dbi": ("g0", db_to_linear),
    "network.eps_sidelobe": ("eps_sidelobe", float),
    "network.t_frame_s": ("t_frame", float),
    "network.t_init_s": ("t_init", float),
    "network.pilot_bandwidth_hz": ("pilot_bandwidth", float),
    "network.noise_dbw": ("noise_psd", None),  # total over the data band
    "network.aoa_sounding_time_s": ("aoa_sounding_time", float),
    "network.ue_sounding_elements": ("ue_sounding_elements", _integral),
}


def boundary_keys() -> tuple:
    """The dotted config keys understood at the parsing boundary."""
    return tuple(_BOUNDARY_KEYS)


def from_boundary_mapping(entries: dict) -> NetworkConfig:
    """Build a NetworkConfig from boundary-unit key/value pairs.

    Any key outside the ``network.*`` table raises ConfigError naming the
    key (the CLI routes the other sections elsewhere). Of two keys of one
    field the later wins. ``network.noise_dbw`` specifies total
    noise power over the data band, converted with the final bandwidth.
    """
    updates = {}
    noise_w = None
    for key, raw in entries.items():
        try:
            field, conv = _BOUNDARY_KEYS[key]
        except KeyError:
            raise ConfigError(f"unknown config key: {key}") from None
        try:
            value = float(raw) if not isinstance(raw, (int, float)) else raw
            if key == "network.noise_dbw":
                noise_w = db_to_linear(value)
            else:
                updates[field] = conv(value)
                if field == "noise_psd":
                    noise_w = None
        # OverflowError: a dB value of a few thousand overflows the float
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    if noise_w is not None:
        bandwidth = updates.get("bandwidth", NetworkConfig.bandwidth)
        updates["noise_psd"] = noise_w / bandwidth
    return NetworkConfig(**updates)


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines ('#' comments, blank lines allowed)."""
    entries = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        set_last(entries, key.strip(), value.strip())
    return entries


def set_last(entries: dict, key: str, value) -> None:
    """entries[key] = value, moved to the end, where a later entry goes."""
    entries.pop(key, None)
    entries[key] = value
