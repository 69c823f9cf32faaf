#!/usr/bin/env python
"""The paper's motivating application: interactive shader parameter edits.

Mimics the GKR95 renderer workflow of Section 5: the user picks one
control parameter of a shader and drags its slider.  The renderer
specializes the shader on everything *except* that parameter, runs the
cache loader once per pixel (building one small cache per pixel), and then
re-renders each slider position with the cache reader alone.

The script renders the marble shader (shader 3), drags ``veinfreq``
through four values, reports per-frame costs, and writes the frames to
PPM image files you can open with any viewer.

Run:  python examples/interactive_shading.py [outdir]
"""

import os
import sys

from repro.shaders.render import RenderSession


def main(outdir="out_interactive"):
    os.makedirs(outdir, exist_ok=True)
    session = RenderSession(3, width=24, height=24)
    info = session.spec_info
    print("shader %d (%s): %s" % (info.index, info.name, info.blurb))
    print("control parameters:", ", ".join(info.control_params))
    print()

    param = "veinfreq"
    print("user grabs the %r slider; specializing on the other %d inputs..."
          % (param, len(info.control_params) - 1 + 5))
    edit = session.begin_edit(param)
    spec = edit.specialization
    print("  per-pixel cache: %d bytes in %d slots"
          % (spec.cache_size_bytes, len(spec.layout)))
    for slot in spec.layout:
        print("    slot%-2d %-5s %s" % (slot.index, slot.ty, slot.source))
    print()

    # Frame 0: no cache yet, so frame() runs the loader pass (fills
    # every pixel's cache).
    frame = edit.frame(session.controls)
    reference = session.render_reference(specialization=spec)
    print("frame 0 (loader): cost/pixel %.0f  (original shader: %.0f)"
          % (frame.cost_per_pixel, reference.cost_per_pixel))
    path = os.path.join(outdir, "marble_frame0.ppm")
    with open(path, "w") as handle:
        handle.write(frame.to_ppm())

    # Subsequent frames move only the dragged slider: reader only.
    for i, value in enumerate([6.0, 9.0, 12.0, 2.0], start=1):
        controls = session.controls_with(**{param: value})
        frame = edit.frame(controls)
        reference = session.render_reference(controls, specialization=spec)
        speedup = reference.cost_per_pixel / frame.cost_per_pixel
        print("frame %d (%s=%4.1f): cost/pixel %.0f vs %.0f  -> %.1fx"
              % (i, param, value, frame.cost_per_pixel,
                 reference.cost_per_pixel, speedup))
        path = os.path.join(outdir, "marble_frame%d.ppm" % i)
        with open(path, "w") as handle:
            handle.write(frame.to_ppm())

    print()
    print("wrote frames to %s/" % outdir)
    print("now drag a light instead (affects nearly everything):")
    edit2 = session.begin_edit("lightx")
    edit2.frame(session.controls)
    controls = session.controls_with(lightx=-2.0)
    frame = edit2.frame(controls)
    reference = session.render_reference(controls, specialization=edit2.specialization)
    print("  lightx frame: cost/pixel %.0f vs %.0f -> %.1fx "
          "(lower, as the paper observes for light-position edits)"
          % (frame.cost_per_pixel, reference.cost_per_pixel,
             reference.cost_per_pixel / frame.cost_per_pixel))


if __name__ == "__main__":
    main(*sys.argv[1:])
