package main

import (
	"fmt"
	"os"
)

// Example pins the multibroker demo's whole output: on the Manual
// clock and a loss-free wire, the views before the exchange miss exactly
// the peers' dispatches and match ground truth after one round.
func Example() {
	if err := run(os.Stdout); err != nil {
		fmt.Println(err)
	}
	// Output:
	// grid: 12 sites, 1200 CPUs
	//
	// free-CPU estimates BEFORE exchange (each broker is blind to 2/3 of dispatches):
	//   ground truth: 720 free CPUs
	//   dp-0 believes:  1040 free CPUs (error +320)
	//   dp-1 believes:  1040 free CPUs (error +320)
	//   dp-2 believes:  1040 free CPUs (error +320)
	//
	// ... one state-exchange round ...
	//
	// free-CPU estimates AFTER exchange (flooded dispatch records merged):
	//   ground truth: 720 free CPUs
	//   dp-0 believes:  720 free CPUs (error +0)
	//   dp-1 believes:  720 free CPUs (error +0)
	//   dp-2 believes:  720 free CPUs (error +0)
	// dp-0: 20 local + 40 remote dispatches known
	// dp-1: 20 local + 40 remote dispatches known
	// dp-2: 20 local + 40 remote dispatches known
}
