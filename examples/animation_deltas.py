#!/usr/bin/env python
"""Animating invariant parameters with incremental delta loaders.

An interactive drag edits the *partition* parameter, so every frame is
a cheap reader pass.  Animation moves the *other* parameters — a sun
orbiting across the sky, a haze level keyframed over time — and a
plain session must answer each of those frames with a full cache
reload.  With ``incremental=True`` the session instead derives which
cache slots each edited parameter dirties and runs a sliced *delta
loader* that refills only those slots in place, falling back to a full
load when the dirty set covers most of the cache.

The script animates the clouds shader (shader 5): a seeded haze sweep,
then a sun orbit (three parameters moving together), printing for each
frame the path taken (delta/noop/full), the slots refilled, and the
cost next to a full reload.  Frames are written as PPM files.

Run:  python examples/animation_deltas.py [outdir]
"""

import math
import os
import sys

from repro.shaders.render import RenderSession


def main(outdir="out_animation"):
    os.makedirs(outdir, exist_ok=True)
    session = RenderSession(5, width=24, height=24, incremental=True)
    info = session.spec_info
    print("shader %d (%s): %s" % (info.index, info.name, info.blurb))

    param = "density"
    edit = session.begin_edit(param)
    spec = edit.specialization
    print("drag partition %r; cache has %d slots" % (param, len(spec.layout)))
    print("dirty slots per animated parameter:")
    for name in ("haze", "sunx", "suny", "sunz", "cloudbright"):
        print("  %-12s -> %s" % (name, sorted(spec.dirty_slots({name}))))
    print()

    # Frame 0: the one unavoidable full load.
    frame = edit.load(session.controls)
    full_cost = frame.total_cost
    print("frame 0 (full load): cost %d" % full_cost)

    def save(index, image):
        path = os.path.join(outdir, "clouds_frame%02d.ppm" % index)
        with open(path, "w") as handle:
            handle.write(image.to_ppm())

    save(0, frame)
    controls = dict(session.controls)
    index = 1

    print("\nhaze sweep (one parameter per frame):")
    for value in (0.1, 0.25, 0.4, 0.2):
        controls = dict(controls, haze=value)
        frame = edit.load(controls)
        dirty = spec.dirty_slots({"haze"})
        print(
            "frame %d (haze=%.2f): %s path, %d/%d slots, cost %d "
            "(full load was %d)"
            % (index, value, edit.last_path, len(dirty),
               len(spec.layout), frame.total_cost, full_cost)
        )
        save(index, frame)
        index += 1

    print("\nsun orbit (sunx/suny/sunz move together):")
    base = session.controls
    for step in range(4):
        angle = (step + 1) * math.pi / 6.0
        controls = dict(
            controls,
            sunx=base["sunx"] + math.cos(angle),
            suny=base["suny"] + math.sin(angle),
            sunz=base["sunz"] + 0.25 * math.cos(angle),
        )
        frame = edit.load(controls)
        dirty = spec.dirty_slots({"sunx", "suny", "sunz"})
        print(
            "frame %d (sun step %d): %s path, %d/%d slots, cost %d "
            "(full load was %d)"
            % (index, step + 1, edit.last_path, len(dirty),
               len(spec.layout), frame.total_cost, full_cost)
        )
        save(index, frame)
        index += 1

    print("\nwrote %d frames to %s/" % (index, outdir))
    print(
        "the same animation without incremental=True would have paid "
        "%d in loader cost per frame" % full_cost
    )


if __name__ == "__main__":
    main(*sys.argv[1:])
