/* The pragma must read exactly '#pragma once'. */
#  pragma once

int spaced();
