package ddnnsim_test

import (
	"fmt"

	"cynthia/internal/cloud"
	"cynthia/internal/ddnnsim"
	"cynthia/internal/model"
)

// Simulate the paper's Fig. 1(b) motivation point: the mnist DNN with BSP
// slows down when scaled from 4 to 8 workers because the PS saturates.
func ExampleRun() {
	workload, _ := model.WorkloadByName("mnist DNN")
	m4, _ := cloud.DefaultCatalog().Lookup(cloud.M4XLarge)

	for _, n := range []int{4, 8} {
		res, err := ddnnsim.Run(workload, cloud.Homogeneous(m4, n, 1),
			ddnnsim.Options{Iterations: 500})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("%d workers: %.0fs, worker CPU %.0f%%, PS CPU %.0f%%\n",
			n, res.TrainingTime, res.MeanWorkerCPUUtil()*100, res.PSCPUUtil[0]*100)
	}
	// Output:
	// 4 workers: 132s, worker CPU 65%, PS CPU 100%
	// 8 workers: 264s, worker CPU 16%, PS CPU 100%
}
