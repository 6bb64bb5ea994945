"""Scene catalog: the six rendering workloads of Section V-A.

| Code | Paper workload              | Shading   | Characteristic              |
|------|-----------------------------|-----------|-----------------------------|
| SPL  | Sponza (Khronos samples)    | basic     | large scene, 1 texture/draw |
| SPH  | Sponza PBR (Godot/Monado)   | PBR       | same geometry, 8 maps       |
| PL   | Platformer (Godot)          | lit2      | many mid-size objects       |
| MT   | Material testers (Godot)    | lit3      | few objects, heavy shading  |
| PT   | Pistol (pbrtexture)         | PBR       | single object, 8 PBR maps   |
| IT   | Planets (instancing)        | instanced | instanced draw, array tex   |

Each entry builds deterministic procedural stand-ins with the same workload
shape (see DESIGN.md substitution table).  ``resolution("2k")`` /
``resolution("4k")`` return the scaled resolutions that preserve the paper's
exact 4x pixel ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from ..graphics.geometry import DrawCall
from ..graphics.pipeline import Camera
from ..graphics.texture import Texture2D
from .material import build_material
from .pistol import build_pistol
from .planets import build_planets
from .platformer import build_platformer
from .sponza import build_sponza, build_sponza_pbr

#: Scaled stand-ins for 2K (2560x1440) and 4K (3840x2160): the 4x pixel
#: ratio between them is exact, which is what the scaling studies use.
RESOLUTIONS: Dict[str, Tuple[int, int]] = {
    # Half-of-2k frame for round-trip tests and campaign smoke sweeps where
    # wall-clock matters more than pixel statistics.
    "nano": (96, 54),
    "2k": (192, 108),
    "4k": (384, 216),
}


def resolution(name: str) -> Tuple[int, int]:
    try:
        return RESOLUTIONS[name]
    except KeyError:
        raise KeyError("unknown resolution %r; known: %s"
                       % (name, sorted(RESOLUTIONS))) from None


@dataclass
class Scene:
    """A built scene: draw calls + camera + the textures they reference."""

    code: str
    title: str
    draws: List[DrawCall]
    camera: Camera
    textures: Dict[str, Texture2D] = field(default_factory=dict)

    @property
    def total_triangles(self) -> int:
        return sum(d.mesh.num_triangles * d.instance_count for d in self.draws)


_BUILDERS: Dict[str, Tuple[str, Callable[[], Scene]]] = {}


def _register(code: str, title: str, builder: Callable[[], Scene]) -> None:
    _BUILDERS[code] = (title, builder)


_register("SPL", "Sponza (Khronos, basic shading)", build_sponza)
_register("SPH", "Sponza PBR (Godot/Monado)", build_sponza_pbr)
_register("PL", "Platformer 3D (Godot)", build_platformer)
_register("MT", "Material testers (Godot)", build_material)
_register("PT", "Pistol (PBR texture)", build_pistol)
_register("IT", "Planets (instancing)", build_planets)

#: Order the paper lists the rendering workloads in.
SCENE_CODES = ("SPH", "PL", "MT", "SPL", "PT", "IT")


def scene_codes() -> Tuple[str, ...]:
    return SCENE_CODES


def build_scene(code: str) -> Scene:
    """Construct a scene by its paper code (deterministic)."""
    try:
        _, builder = _BUILDERS[code]
    except KeyError:
        raise KeyError("unknown scene %r; known: %s"
                       % (code, sorted(_BUILDERS))) from None
    return builder()


def scene_title(code: str) -> str:
    return _BUILDERS[code][0]
