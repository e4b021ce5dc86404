"""Render every augmentation strategy against one real and one fake sample.

Writes a small PPM gallery (three seeded draws per strategy) so the
transforms can be eyeballed: what random erasing covers, how hard the
corruption pipeline degrades, whether crops keep the subject in frame.

Usage: python3 demos/augmentation_gallery.py [out_dir]
"""

import sys
from pathlib import Path

from twoview.augment import STRATEGY_KINDS, RngStream, apply_augment
from twoview.imgops import write_ppm
from twoview.synthdata import gen_fake, gen_real


def main(out_dir: str = "demo_out/gallery"):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    base = gen_real(RngStream(11, index=0))
    donor = gen_real(RngStream(11, index=1))
    fake = gen_fake(base, donor, RngStream(11, epoch=1, index=0))

    write_ppm(out / "source_real.ppm", base.image)
    write_ppm(out / "source_fake.ppm", fake.image)

    count = 0
    for kind in STRATEGY_KINDS:
        for name, sample in (("real", base), ("fake", fake)):
            for k in range(3):
                view = apply_augment(sample.image, kind, RngStream(11, epoch=2, index=k))
                write_ppm(out / f"{name}_{kind}_{k}.ppm", view)
                count += 1
    print(f"wrote {count + 2} images to {out}/")
    print(f"strategies: {', '.join(STRATEGY_KINDS)}")


if __name__ == "__main__":
    main(*sys.argv[1:2])
