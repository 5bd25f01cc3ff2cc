// Leading comments are fine; the pragma is the first non-comment line.
/* Block comments too. */
#pragma once  // trailing comment

#ifndef SURFNET_HAVE_FEATURE
#define SURFNET_HAVE_FEATURE 0
#endif
#ifndef SURFNET_H_INCLUDED
#endif

int clean();
