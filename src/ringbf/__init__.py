"""Ring-decomposed bilateral filtering for 16-bit grayscale images.

The filter averages each pixel's ring-shaped neighborhood with weights that
fall off both with spatial distance and with photometric difference, scaled
so that a chosen fraction of the local noise deviation survives.  The
package bundles the filter itself, a Monte-Carlo estimator of the
deviation-reduction function, a threshold solver, a dose-to-noise model for
planning filter strength on low-dose CT-style images, and empirical
calibration from image pairs.

Images and Monte-Carlo trial ensembles go through one numpy compute path
(``ringbf._core_py``).  It walks images in cache-sized row strips on one
thread per available core, and trial ensembles in fixed-size chunks, so
temporaries stay in cache rather than streaming whole-image arrays through
memory.  Each pixel keeps a pinned operation order, so results are
bit-identical whatever the tiling or the thread count.
"""
from . import analysis, calibrate, ctmodel, errors, filter, io_cli, kernel
from .analysis import *
from .calibrate import *
from .ctmodel import *
from .errors import *
from .filter import *
from .io_cli import *
from .kernel import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += kernel.__all__
__all__ += filter.__all__
__all__ += analysis.__all__
__all__ += ctmodel.__all__
__all__ += calibrate.__all__
__all__ += io_cli.__all__
__all__ += errors.__all__
