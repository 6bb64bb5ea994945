"""Functional rendering + trace generation (Fig 1's rendering pipeline).

At ``vkQueueSubmit`` the recorded draw calls execute functionally: vertices
are batched and transformed, primitives are culled, fragments are
rasterized with early-Z and pre-computed LoD, textures are sampled, and the
framebuffer is written.  Alongside the functional results, every shader
invocation is captured as a SASS-analog :class:`~repro.isa.KernelTrace`
(one vertex kernel and one fragment kernel per draw call) — the traces
Accel-Sim's timing model later replays, possibly concurrently with CUDA
streams.

Fixed-function stages (assembly, rasterization) are modelled functionally
only, as in the paper; their memory traffic is recreated by the pipeline
loads/stores in the shader traces (vertex fetch, VS-output export via L2,
interpolant fetch, framebuffer store).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..isa import CTATrace, KernelTrace, ShaderKind, WarpTrace
from ..memory.address import (
    SECTOR_SIZE,
    AddressAllocator,
    coalesce_rows,
    span_lines,
)
from .framebuffer import Framebuffer
from .geometry import INSTANCE_STRIDE, VERTEX_STRIDE, DrawCall
from .lod import lod_from_gradients
from .raster import (
    FragmentBuffer,
    backface_cull,
    frustum_cull,
    rasterize_batch,
    resolve_fragment_order,
    warp_rows,
)
from .shaders import ShaderTranslator, WarpBindings, shader_pair
from .texture import Texture2D
from .transform import clip_to_screen, transform_points
from .vertex_batch import VertexBatch, build_batches, total_shader_invocations

#: Byte offsets of attributes inside one interleaved vertex record.
_ATTR_OFFSETS = {"position": 0, "normal": 12, "uv": 24}
#: Bytes per vertex of VS output (VARYING_WORDS words).
_VARYING_BYTES = 32
#: Warps per fragment-shader CTA (128 threads, a common tile work size).
_FS_WARPS_PER_CTA = 4


@dataclass
class DrawStats:
    """Per-draw measurements used by the case studies."""

    name: str = ""
    triangles_submitted: int = 0
    triangles_rasterized: int = 0
    batches: int = 0
    unique_vertices: int = 0
    vs_invocations: int = 0
    fragments: int = 0
    tex_transactions: int = 0
    #: Distinct TEX cache lines referenced per fragment CTA (Fig 10).
    tex_lines_per_cta: List[int] = field(default_factory=list)


@dataclass
class FrameResult:
    """Everything one submitted frame produced."""

    kernels: List[KernelTrace]
    draw_stats: List[DrawStats]
    framebuffer: Framebuffer

    @property
    def total_instructions(self) -> int:
        return sum(k.num_instructions for k in self.kernels)

    @property
    def vs_invocations(self) -> int:
        return sum(d.vs_invocations for d in self.draw_stats)

    @property
    def tex_transactions(self) -> int:
        return sum(d.tex_transactions for d in self.draw_stats)


class TraceGenerator:
    """Executes draws functionally and captures shader traces."""

    def __init__(
        self,
        allocator: AddressAllocator,
        textures: Dict[str, Texture2D],
        batch_size: int = 96,
        tile_size: int = 16,
        lod_enabled: bool = True,
        early_z: bool = True,
        warp_size: int = 32,
        tex_filter: str = "nearest",
    ) -> None:
        if tex_filter not in ("nearest", "bilinear", "trilinear"):
            raise ValueError(
                "tex_filter must be 'nearest', 'bilinear' or 'trilinear'")
        self.allocator = allocator
        self.textures = textures
        self.batch_size = batch_size
        self.tile_size = tile_size
        self.lod_enabled = lod_enabled
        self.early_z = early_z
        self.warp_size = warp_size
        self.tex_filter = tex_filter
        self._mesh_bases: Dict[object, int] = {}
        self._instance_bases: Dict[int, int] = {}
        for tex in textures.values():
            if tex.level_bases is None:
                tex.place(allocator)

    # -- resource placement -------------------------------------------------
    def _vertex_buffer_base(self, draw: DrawCall) -> int:
        key = id(draw.mesh)
        base = self._mesh_bases.get(key)
        if base is None:
            base = self.allocator.alloc(draw.mesh.vertex_buffer_bytes())
            self._mesh_bases[key] = base
        return base

    def _index_buffer_base(self, draw: DrawCall) -> int:
        key = ("ib", id(draw.mesh))
        base = self._mesh_bases.get(key)
        if base is None:
            base = self.allocator.alloc(max(4, draw.mesh.index_buffer_bytes()))
            self._mesh_bases[key] = base
        return base

    def _instance_buffer_base(self, draw: DrawCall) -> int:
        key = id(draw.instances)
        base = self._instance_bases.get(key)
        if base is None:
            assert draw.instances is not None
            base = self.allocator.alloc(draw.instances.buffer_bytes())
            self._instance_bases[key] = base
        return base

    # -- draw execution -------------------------------------------------------
    def execute_draw(
        self,
        draw: DrawCall,
        view_proj: np.ndarray,
        framebuffer: Framebuffer,
        depth_only: bool = False,
        depth_func: str = "less",
    ) -> Tuple[List[KernelTrace], DrawStats]:
        """Run one draw call; returns its kernels (VS then FS) and stats.

        ``depth_only`` runs the draw as part of a depth pre-pass: the
        position-only vertex shader executes and the depth buffer is
        populated, but no fragments are shaded.  ``depth_func`` selects
        the early-Z comparison ("lequal" for a color pass that follows a
        pre-pass).
        """
        mesh = draw.mesh
        stats = DrawStats(name=draw.name)
        stats.triangles_submitted = mesh.num_triangles * draw.instance_count
        batches = build_batches(mesh.indices, self.batch_size)
        stats.batches = len(batches) * draw.instance_count
        stats.unique_vertices = sum(b.num_unique for b in batches) * draw.instance_count
        stats.vs_invocations = (
            total_shader_invocations(batches, self.warp_size) * draw.instance_count
        )
        if depth_only:
            from .shaders.library import vertex_depth_only
            vs_prog = vertex_depth_only()
            fs_prog = None
        else:
            vs_prog, fs_prog = shader_pair(draw.shader)
        vs_tr = ShaderTranslator(vs_prog)
        fs_tr = ShaderTranslator(fs_prog) if fs_prog is not None else None
        vb_base = self._vertex_buffer_base(draw)
        ib_base = self._index_buffer_base(draw)
        inst_base = (
            self._instance_buffer_base(draw) if draw.instances is not None else 0
        )
        mvp = view_proj @ draw.model

        vs_ctas: List[CTATrace] = []
        fragments: List[Tuple[FragmentBuffer, int]] = []  # (frags, instance)
        vs_out_bytes = self.batch_size * _VARYING_BYTES
        for instance in range(draw.instance_count):
            for batch in batches:
                out_base = self.allocator.alloc(vs_out_bytes)
                vs_ctas.append(self._vertex_cta(
                    batch, vs_tr, vb_base, ib_base, inst_base, instance,
                    out_base, draw))
                frag = self._raster_batch(
                    batch, draw, instance, mvp, framebuffer, out_base,
                    depth_func=depth_func)
                if frag is not None and frag.count:
                    stats.triangles_rasterized += int(frag.attrs.pop("_tris")[0, 0])
                    if not depth_only:
                        fragments.append((frag, instance))
        kernels: List[KernelTrace] = []
        if vs_ctas:
            kernels.append(KernelTrace(
                ("vsz:%s" if depth_only else "vs:%s") % draw.name, vs_ctas,
                threads_per_cta=max(c.num_warps for c in vs_ctas) * self.warp_size,
                regs_per_thread=vs_tr.register_demand(),
                kind=ShaderKind.VERTEX,
                # A draw's vertex work does not depend on the previous
                # draw's fragments: ITR pipelines batches (Section III).
                depends_on_prev=False,
            ))
        if fragments and fs_tr is not None:
            fs_kernel = self._fragment_kernel(draw, fragments, fs_tr, framebuffer, stats)
            if fs_kernel is not None:
                kernels.append(fs_kernel)
        return kernels, stats

    # -- vertex stage -----------------------------------------------------------
    def _vertex_cta(
        self,
        batch: VertexBatch,
        translator: ShaderTranslator,
        vb_base: int,
        ib_base: int,
        inst_base: int,
        instance: int,
        out_base: int,
        draw: DrawCall,
    ) -> CTATrace:
        verts, active = warp_rows(batch.unique_vertices, self.warp_size)
        attr_addrs = {
            name: vb_base + verts * VERTEX_STRIDE + off
            for name, off in _ATTR_OFFSETS.items()
        }
        if draw.instances is not None:
            attr_addrs["instance"] = np.full(
                verts.shape, inst_base + instance * INSTANCE_STRIDE,
                dtype=np.int64)
        fetched = [name for name in translator.attributes
                   if name in attr_addrs]
        attr_lines = {name: coalesce_rows(attr_addrs[name], active)
                      for name in fetched}
        attr_sectors = {name: coalesce_rows(attr_addrs[name], active,
                                            SECTOR_SIZE)
                        for name in fetched}
        slots = np.arange(verts.size, dtype=np.int64).reshape(verts.shape)
        out = out_base + slots * _VARYING_BYTES
        store_lines = [coalesce_rows(out + i * 16, active)
                       for i in range(translator.varying_stores)]
        # The batch's index fetch rides on its first warp.
        index_lines = span_lines(ib_base + batch.first_index_offset * 4,
                                 batch.num_triangles * 12) or None
        warps: List[WarpTrace] = []
        for w, lanes in enumerate(active.tolist()):
            warps.append(translator.emit_warp(WarpBindings(
                active=lanes,
                attr_lines={n: r[w] for n, r in attr_lines.items()},
                attr_sectors={n: r[w] for n, r in attr_sectors.items()},
                varying_store_lines=[r[w] for r in store_lines],
                index_lines=index_lines if w == 0 else None,
            )))
        return CTATrace(warps, cta_id=batch.batch_id)

    # -- raster -------------------------------------------------------------------
    def _raster_batch(
        self,
        batch: VertexBatch,
        draw: DrawCall,
        instance: int,
        mvp: np.ndarray,
        framebuffer: Framebuffer,
        out_base: int,
        depth_func: str = "less",
    ) -> Optional[FragmentBuffer]:
        mesh = draw.mesh
        positions = mesh.positions[batch.unique_vertices]
        layer = 0
        if draw.instances is not None:
            inst = draw.instances
            positions = positions * inst.scales[instance] + inst.offsets[instance]
            layer = int(inst.layers[instance])
        clip = transform_points(mvp, positions)
        tris = frustum_cull(clip, batch.local_indices)
        if not len(tris):
            return None
        screen = clip_to_screen(clip, framebuffer.width, framebuffer.height)
        tris = backface_cull(screen, tris)
        if not len(tris):
            return None
        # Vertices at/behind the camera plane belong only to culled
        # triangles; give them a harmless reciprocal instead of inf.
        w = clip[:, 3]
        inv_w = np.where(np.abs(w) > 1e-12, 1.0 / np.where(w == 0, 1.0, w), 0.0)
        # Per-vertex varying record base address, for the FS interpolant fetch.
        vary_addr = (out_base
                     + np.arange(len(positions), dtype=np.int64) * _VARYING_BYTES)
        attrs = {
            "uv": mesh.uvs[batch.unique_vertices],
            "normal": mesh.normals[batch.unique_vertices],
            "vary": vary_addr[:, None].astype(np.float64),
            "layer": np.full((len(positions), 1), float(layer)),
        }
        frag = rasterize_batch(screen, inv_w, tris, attrs,
                               framebuffer.depth, early_z=self.early_z,
                               depth_func=depth_func)
        if frag.count:
            # Interpolating the address of v0 across a triangle yields
            # non-integer values; fragments of a triangle all need its
            # records, so snap to the record grid.
            vary = frag.attrs["vary"][:, 0]
            frag.attrs["vary"] = (
                out_base + ((vary - out_base) // _VARYING_BYTES) * _VARYING_BYTES
            )[:, None]
            frag.attrs["_tris"] = np.full((frag.count, 1), float(len(tris)))
        return frag

    # -- fragment stage ---------------------------------------------------------------
    def _fragment_kernel(
        self,
        draw: DrawCall,
        fragments: List[Tuple[FragmentBuffer, int]],
        translator: ShaderTranslator,
        framebuffer: Framebuffer,
        stats: DrawStats,
    ) -> Optional[KernelTrace]:
        frag = FragmentBuffer.concatenate([f for f, _ in fragments])
        if frag.count == 0:
            return None
        stats.fragments = frag.count
        order = resolve_fragment_order(frag, framebuffer.width, self.tile_size)
        x = frag.x[order]
        y = frag.y[order]
        uv = frag.attrs["uv"][order]
        normal = frag.attrs["normal"][order]
        vary = frag.attrs["vary"][order, 0].astype(np.int64)
        layer = frag.attrs["layer"][order, 0].astype(np.int64)
        dudx, dvdx = frag.dudx[order], frag.dvdx[order]
        dudy, dvdy = frag.dudy[order], frag.dvdy[order]
        slots = translator.program.texture_slots
        slot_textures = self._bind_textures(draw, slots)

        # Functional shading inputs per texture slot.  ``addrs`` is (N,)
        # for nearest filtering or (N, 4) for bilinear; coalescing counts
        # trailing axes as part of their lane either way.
        colors_by_slot: Dict[int, np.ndarray] = {}
        addrs_by_slot: Dict[int, np.ndarray] = {}
        for slot, tex in slot_textures.items():
            if self.lod_enabled:
                lod = lod_from_gradients(dudx, dvdx, dudy, dvdy,
                                         tex.width, tex.height)
            else:
                lod = None
            if self.tex_filter == "bilinear":
                colors, addrs = tex.sample_bilinear(uv[:, 0], uv[:, 1],
                                                    lod, layer)
            elif self.tex_filter == "trilinear":
                colors, addrs = tex.sample_trilinear(uv[:, 0], uv[:, 1],
                                                     lod, layer)
            else:
                colors, addrs = tex.sample_nearest(uv[:, 0], uv[:, 1],
                                                   lod, layer)
            colors_by_slot[slot] = colors
            addrs_by_slot[slot] = addrs

        shaded = _shade(draw.shader, colors_by_slot, normal)
        framebuffer.write_color(x, y, shaded)

        fb_addr = framebuffer.pixel_addresses(x, y)
        # Coalesce each operand of the whole kernel at once: one call per
        # texture slot, interpolant load and colour store, not per warp.
        tex_lines: Dict[int, List[List[int]]] = {}
        tex_sectors: Dict[int, List[List[int]]] = {}
        vary_block, active = warp_rows(vary, self.warp_size)
        for slot in slot_textures:
            block, _ = warp_rows(addrs_by_slot[slot], self.warp_size)
            tex_lines[slot] = coalesce_rows(block, active)
            tex_sectors[slot] = coalesce_rows(block, active, SECTOR_SIZE)
        varying_lines = [coalesce_rows(vary_block + i * 16, active)
                         for i in range(translator.varying_loads)]
        fb_block, _ = warp_rows(fb_addr, self.warp_size)
        color_lines = coalesce_rows(fb_block, active)
        color_sectors = coalesce_rows(fb_block, active, SECTOR_SIZE)

        ctas: List[CTATrace] = []
        warps: List[WarpTrace] = []
        cta_tex_lines: set = set()
        for w, lanes in enumerate(active.tolist()):
            warp_tex = {slot: rows[w] for slot, rows in tex_lines.items()}
            for lines in warp_tex.values():
                stats.tex_transactions += len(lines)
                cta_tex_lines.update(lines)
            warps.append(translator.emit_warp(WarpBindings(
                active=lanes,
                varying_lines=[rows[w] for rows in varying_lines],
                tex_lines=warp_tex,
                tex_sectors={slot: rows[w]
                             for slot, rows in tex_sectors.items()},
                color_lines=color_lines[w],
                color_sectors=color_sectors[w],
            )))
            if len(warps) == _FS_WARPS_PER_CTA:
                ctas.append(CTATrace(warps, cta_id=len(ctas)))
                stats.tex_lines_per_cta.append(len(cta_tex_lines))
                warps = []
                cta_tex_lines = set()
        if warps:
            ctas.append(CTATrace(warps, cta_id=len(ctas)))
            stats.tex_lines_per_cta.append(len(cta_tex_lines))
        return KernelTrace(
            "fs:%s" % draw.name, ctas,
            threads_per_cta=_FS_WARPS_PER_CTA * self.warp_size,
            regs_per_thread=translator.register_demand(),
            kind=ShaderKind.FRAGMENT,
        )

    def _bind_textures(self, draw: DrawCall, slots: Tuple[int, ...]
                       ) -> Dict[int, Texture2D]:
        bound: Dict[int, Texture2D] = {}
        for slot in slots:
            if slot >= len(draw.texture_slots):
                raise ValueError(
                    "draw %r binds %d textures but shader %r samples slot %d"
                    % (draw.name, len(draw.texture_slots), draw.shader, slot))
            name = draw.texture_slots[slot]
            try:
                bound[slot] = self.textures[name]
            except KeyError:
                raise KeyError("texture %r not registered with the trace "
                               "generator" % name) from None
        return bound


#: Fixed directional light for the functional lighting model.
_LIGHT_DIR = np.array([0.4, 0.8, -0.45])
_LIGHT_DIR = _LIGHT_DIR / np.linalg.norm(_LIGHT_DIR)


def _shade(shader: str, colors: Dict[int, np.ndarray], normal: np.ndarray
           ) -> np.ndarray:
    """Functional fragment shading: deterministic, per-shader-family."""
    n = normal / np.maximum(np.linalg.norm(normal, axis=1, keepdims=True), 1e-9)
    ndotl = np.clip(n @ _LIGHT_DIR, 0.0, 1.0)[:, None]
    if not colors:
        base = np.ones((len(normal), 4), dtype=np.float32)
    else:
        base = colors[min(colors)]
    if shader == "shadowed" and len(colors) >= 2:
        # Slot 0 is diffuse; slot 1 holds the shadow-map depths sampled at
        # the fragment's light-space position.
        shadow_depth = colors[1][:, :1]
        lit = np.clip(shadow_depth * 1.4 + 0.3, 0.3, 1.0)
        out = base * (0.3 + 0.7 * ndotl) * lit
    elif shader == "pbr" and len(colors) >= 8:
        albedo = colors[2]
        irradiance = colors[0]
        ao = colors[5][:, :1]
        metallic = colors[6][:, :1]
        rough = colors[7][:, :1]
        diffuse = albedo * (0.25 + 0.75 * ndotl)
        spec = irradiance * metallic * (1.0 - rough) * 0.5
        out = diffuse * ao + spec
    elif len(colors) >= 2:
        second = colors[sorted(colors)[1]]
        out = (base * 0.7 + second * 0.3) * (0.3 + 0.7 * ndotl)
    else:
        out = base * (0.3 + 0.7 * ndotl)
    out = np.clip(out, 0.0, 1.0).astype(np.float32)
    out[:, 3] = 1.0
    return out
