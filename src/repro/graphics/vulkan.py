"""Vulkan-like command recording front-end.

Mirrors the flow in Section III: the application records commands (state
binds, resource binds, draws) into a :class:`CommandBuffer`; nothing
executes until :meth:`Queue.submit` — the ``vkQueueSubmit`` moment — which
runs the functional pipeline and returns the frame's traces.

Only the slice of the API the workloads need is modelled (the paper makes
the same scoping choice: "we implemented enough APIs to support Godot
V4.0").  Calls validate ordering the way a Vulkan validation layer would:
draws require a bound pipeline and an open render pass.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from .framebuffer import Framebuffer
from .geometry import DrawCall, Mesh
from .pipeline import Camera, GraphicsPipeline, PipelineConfig
from .texture import Texture2D
from .tracegen import FrameResult


class VulkanError(RuntimeError):
    """API misuse (what a validation layer would flag)."""


class Device:
    """Logical device owning pipelines and resources."""

    def __init__(self, config: Optional[PipelineConfig] = None) -> None:
        self.config = config or PipelineConfig()
        self._textures: Dict[str, Texture2D] = {}

    def create_texture(self, texture: Texture2D) -> Texture2D:
        if texture.name in self._textures:
            raise VulkanError("texture %r already exists" % texture.name)
        self._textures[texture.name] = texture
        return texture

    def create_graphics_pipeline(self) -> GraphicsPipeline:
        return GraphicsPipeline(self._textures, config=self.config)

    def create_command_buffer(self) -> "CommandBuffer":
        return CommandBuffer(self)

    def create_queue(self) -> "Queue":
        return Queue(self)


class CommandBuffer:
    """Records draw commands; replayed at submit time."""

    def __init__(self, device: Device) -> None:
        self.device = device
        self._recording = False
        self._in_render_pass = False
        self._camera: Optional[Camera] = None
        self._framebuffer: Optional[Framebuffer] = None
        self._bound_shader: Optional[str] = None
        self._bound_textures: List[str] = []
        self._bound_mesh: Optional[Mesh] = None
        self._bound_model: Optional[np.ndarray] = None
        self._draws: List[DrawCall] = []

    # -- recording lifecycle ---------------------------------------------------
    def begin(self) -> "CommandBuffer":
        if self._recording:
            raise VulkanError("command buffer already recording")
        self._recording = True
        self._draws = []
        return self

    def begin_render_pass(self, framebuffer: Framebuffer, camera: Camera) -> None:
        self._require_recording()
        if self._in_render_pass:
            raise VulkanError("render pass already open")
        self._in_render_pass = True
        self._framebuffer = framebuffer
        self._camera = camera

    def end_render_pass(self) -> None:
        self._require_recording()
        if not self._in_render_pass:
            raise VulkanError("no render pass open")
        self._in_render_pass = False

    def end(self) -> "CommandBuffer":
        self._require_recording()
        if self._in_render_pass:
            raise VulkanError("render pass still open at end()")
        self._recording = False
        return self

    # -- state binds ---------------------------------------------------------------
    def bind_pipeline(self, shader: str) -> None:
        self._require_recording()
        self._bound_shader = shader

    def bind_textures(self, names: Sequence[str]) -> None:
        self._require_recording()
        missing = [n for n in names if n not in self.device._textures]
        if missing:
            raise VulkanError("textures not created on device: %s" % missing)
        self._bound_textures = list(names)

    def bind_vertex_buffer(self, mesh: Mesh,
                           model: Optional[np.ndarray] = None) -> None:
        self._require_recording()
        self._bound_mesh = mesh
        self._bound_model = model

    # -- draws ------------------------------------------------------------------------
    def draw_indexed(self, name: Optional[str] = None) -> None:
        self._require_recording()
        if not self._in_render_pass:
            raise VulkanError("draw outside a render pass")
        if self._bound_shader is None:
            raise VulkanError("no pipeline bound")
        if self._bound_mesh is None:
            raise VulkanError("no vertex buffer bound")
        self._draws.append(DrawCall(
            self._bound_mesh,
            model=self._bound_model,
            texture_slots=self._bound_textures,
            shader=self._bound_shader,
            name=name,
        ))

    def _require_recording(self) -> None:
        if not self._recording:
            raise VulkanError("command buffer is not recording; call begin()")


class Queue:
    """Submission queue; submit() triggers simulation of the frame."""

    def __init__(self, device: Device) -> None:
        self.device = device
        self._pipeline: Optional[GraphicsPipeline] = None

    def submit(self, cb: CommandBuffer, width: int, height: int) -> FrameResult:
        """``vkQueueSubmit``: execute the recorded frame."""
        if cb._recording:
            raise VulkanError("command buffer not ended; call end() first")
        if cb._camera is None or cb._framebuffer is None:
            raise VulkanError("command buffer has no render pass recorded")
        if not cb._draws:
            raise VulkanError("command buffer records no draws")
        if self._pipeline is None:
            self._pipeline = self.device.create_graphics_pipeline()
        return self._pipeline.render_frame(
            cb._draws, cb._camera, width, height, framebuffer=cb._framebuffer)
