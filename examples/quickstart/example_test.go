package main

import (
	"fmt"
	"os"
)

// Example pins the quickstart's whole output: on the Manual clock every
// decision, completion and count is the same run to run.
func Example() {
	if err := run(os.Stdout); err != nil {
		fmt.Println(err)
	}
	// Output:
	// scheduling 6 atlas jobs through DI-GRUBER:
	//   analysis-00 -> uchicago  (handled=true)
	//   analysis-01 -> uchicago  (handled=true)
	//   analysis-02 -> anl       (handled=true)
	//   analysis-03 -> fnal      (handled=true)
	//   analysis-04 -> uchicago  (handled=true)
	//   analysis-05 -> anl       (handled=true)
	//
	// running the clock 2 virtual minutes to the completions:
	//   analysis-00 finished at uchicago  queue-time=0s
	//   analysis-01 finished at uchicago  queue-time=0s
	//   analysis-02 finished at anl       queue-time=0s
	//   analysis-03 finished at fnal      queue-time=0s
	//   analysis-04 finished at uchicago  queue-time=0s
	//   analysis-05 finished at anl       queue-time=0s
	//
	// final grid state:
	//   anl        16/ 16 CPUs free
	//   fnal        8/  8 CPUs free
	//   uchicago   32/ 32 CPUs free
	//
	// broker handled 6 queries, recorded 6 dispatches
}
