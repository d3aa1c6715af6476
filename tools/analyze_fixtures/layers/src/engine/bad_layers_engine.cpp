// True positive: alert sits at the top of the DAG; nothing depends back
// on it.
#include "alert/pipeline.hpp"
