package sq8h

import "vectordb/internal/index/ivf"

// IVF exposes the wrapped IVF_SQ8 index to the tests.
func (x *SQ8H) IVF() *ivf.IVF { return x.ivf }
