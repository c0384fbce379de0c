package main

import (
	"fmt"
	"os"
)

// Example pins the negotiation's whole output: the agreement as XML,
// what the broker installs and publishes, where the capped jobs land and
// the headroom left after the cap is tightened.
func Example() {
	if err := run(os.Stdout); err != nil {
		fmt.Println(err)
	}
	// Output:
	// provider proposes:
	// <Agreement name="big-center-atlas-2005">
	//   <Context>
	//     <AgreementProvider>big-center</AgreementProvider>
	//     <AgreementConsumer>atlas</AgreementConsumer>
	//     <ExpirationTime>2005-11-13T00:00:00Z</ExpirationTime>
	//   </Context>
	//   <Terms>
	//     <GuaranteeTerm name="cpu-share">
	//       <ServiceScope>
	//         <Resource>cpu</Resource>
	//       </ServiceScope>
	//       <ServiceLevelObjective>
	//         <Goal>60+</Goal>
	//       </ServiceLevelObjective>
	//     </GuaranteeTerm>
	//     <GuaranteeTerm name="storage-share">
	//       <ServiceScope>
	//         <Resource>storage</Resource>
	//       </ServiceScope>
	//       <ServiceLevelObjective>
	//         <Goal>40+</Goal>
	//       </ServiceLevelObjective>
	//     </GuaranteeTerm>
	//   </Terms>
	// </Agreement>
	//
	// broker installed 2 USLA entries (warnings: 0)
	//
	// consumer discovers 1 published agreement(s) for big-center:
	//   atlas gets 60+ of cpu at big-center
	//   atlas gets 40+ of storage at big-center
	//
	// atlas schedules 8 × 10-CPU jobs under the 60% cap:
	//   placements: map[big-center:60 small-lab:20]
	//   (big-center cap = 60 CPUs, so at most 60 land there; the rest spill to small-lab)
	//
	// provider renegotiates big-center down to 20+ ...
	//   big-center  headroom now 0 CPUs
	//   small-lab   headroom now 0 CPUs
}
