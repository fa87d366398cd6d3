"""The kernel of a linear map by witnessed elimination: the route the
package read Ann f, the filtration ideals and the colon and joint spaces of
constructions by, before each was read by duality as an orthogonal.  Kept
here as the reference those readouts are tested against."""

from macdual.fields import Field
from macdual.linalg import Echelon, _div


def kernel(field: Field, images) -> list[dict]:
    """Basis of the kernel of the linear map sending the i-th unit vector to
    images[i], as sparse dicts over the positions i.  Each image is reduced
    once, with witness {i: 1}, against the images kept so far: a nonzero
    remainder becomes a row, a zero one makes the witness a kernel vector.
    Its entry at i is the product of the factors fraction-free reduction
    multiplied it by (one over F_p), and the witness is returned divided by
    it, one division per kernel vector: the unique kernel vector supported
    on i and the stored images with 1 at i.  Entries are canonical (over Q,
    ints whenever the denominator is one)."""
    ech = Echelon(field)
    out = []
    for i, img in enumerate(images):
        wit = {i: field.one}
        rem = ech.reduce(img, wit)
        if rem:
            ech._store(rem, wit)
            continue
        d = wit[i]
        if d != 1:
            wit = {k: _div(a, d) for k, a in wit.items()}
        out.append(wit)
    return out
