"""Shader IR, library, and IR->trace translator."""

from .ir import (
    Alu,
    AttrLoad,
    ColorStore,
    ShaderProgram,
    SOp,
    TexSample,
    VaryingLoad,
    VaryingStore,
)
from .library import (
    PBR_MAPS,
    SHADER_PAIRS,
    VARYING_WORDS,
    fragment_basic,
    fragment_pbr,
    fragment_textured_lit,
    shader_pair,
    vertex_basic,
    vertex_instanced,
)
from .translator import ShaderTranslator

__all__ = [
    "Alu",
    "AttrLoad",
    "ColorStore",
    "PBR_MAPS",
    "SHADER_PAIRS",
    "SOp",
    "ShaderProgram",
    "ShaderTranslator",
    "TexSample",
    "VARYING_WORDS",
    "VaryingLoad",
    "VaryingStore",
    "fragment_basic",
    "fragment_pbr",
    "fragment_textured_lit",
    "shader_pair",
    "vertex_basic",
    "vertex_instanced",
]
