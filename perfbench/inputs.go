package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"firemarshal/internal/asm"
	"firemarshal/internal/isa"
	"firemarshal/internal/workgen"
)

// fleetJobs is how many jobs the fleet-launch workload runs.
const fleetJobs = 8

func benchByName(name string) (workgen.Benchmark, error) {
	for _, b := range workgen.IntSpeedSuite() {
		if b.Name == name {
			return b, nil
		}
	}
	return workgen.Benchmark{}, fmt.Errorf("no intspeed benchmark %q", name)
}

func assemble(src string) ([]byte, error) {
	exe, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		return nil, err
	}
	return isa.EncodeExecutable(exe), nil
}

// writeFiles writes {relative path: content} under dir; .sh and .bin
// files and files under a bin/ directory are made executable.
func writeFiles(dir string, files map[string]string) error {
	for name, content := range files {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return err
		}
		mode := os.FileMode(0o644)
		if strings.HasSuffix(name, ".sh") || strings.HasSuffix(name, ".bin") || strings.Contains(name, "bin/") {
			mode = 0o755
		}
		if err := os.WriteFile(p, []byte(content), mode); err != nil {
			return err
		}
	}
	return nil
}

// fleetJob is one job of the fleet workload and the benchmark it runs.
type fleetJob struct{ name, bench string }

// target is the job's build and run target name.
func (j fleetJob) target() string { return "parjobs-" + j.name }

// fleetHalves split the fleet's eight binaries into two halves of equal
// work (4.2M retired instructions each). The coordinator leases jobs to
// the least-loaded worker, so in a fresh launch the even-numbered jobs go
// to one worker and the odd-numbered ones to the other; drawing the even
// jobs from one half and the odd jobs from the other keeps both workers'
// load the same for every seed.
var fleetHalves = [2][]string{
	{"600.perlbench_s", "605.mcf_s", "625.x264_s", "641.leela_s"},
	{"602.gcc_s", "620.omnetpp_s", "623.xalancbmk_s", "631.deepsjeng_s"},
}

// writeFleetWorkload writes the fleet's parjobs workload with
// workgen.EmitParallelWorkload: fleetJobs jobs running the first
// fleetJobs intspeed ref-dataset binaries. The seed then picks which
// binary each job runs, within the job's half, and so the order in which
// the coordinator leases them; the set of binaries and each worker's
// share of the work stay the same.
func writeFleetWorkload(dir string, seed int64) ([]fleetJob, error) {
	if _, err := workgen.EmitParallelWorkload(dir, fleetJobs, "ref"); err != nil {
		return nil, err
	}
	binDir := filepath.Join(dir, "overlay-parjobs", "parjobs")
	bins := map[string][]byte{}
	gen := workgen.ParallelJobs(fleetJobs, "ref")
	for _, j := range gen {
		var err error
		if bins[j.Bench], err = os.ReadFile(filepath.Join(binDir, j.Name)); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	perms := [2][]int{rng.Perm(len(fleetHalves[0])), rng.Perm(len(fleetHalves[1]))}
	var jobs []fleetJob
	for i, j := range gen {
		bench := fleetHalves[i%2][perms[i%2][i/2]]
		if bins[bench] == nil {
			return nil, fmt.Errorf("fleet half lists %s, not one of the %d emitted jobs", bench, fleetJobs)
		}
		if err := os.WriteFile(filepath.Join(binDir, j.Name), bins[bench], 0o755); err != nil {
			return nil, err
		}
		jobs = append(jobs, fleetJob{j.Name, bench})
	}
	return jobs, nil
}

// suiteWorkload returns the Fig. 6 intspeed workload files: the paper's
// fixed ten ref-dataset binaries behind the Listing 2 dispatcher, one
// job per benchmark.
func suiteWorkload() (map[string]string, error) {
	files := map[string]string{"overlay/intspeed.sh": workgen.IntSpeedRunScript()}
	var jobs []string
	for _, b := range workgen.IntSpeedSuite() {
		bin, err := assemble(b.Source("ref"))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		files["overlay/spec/bin/"+b.Name] = string(bin)
		jobs = append(jobs, fmt.Sprintf(`    {"name": %q, "command": "/intspeed.sh %s --threads 1"}`, b.Name, b.Name))
	}
	files["intspeed.json"] = fmt.Sprintf("{\n  \"name\": \"intspeed\", \"base\": \"buildroot\", \"overlay\": \"overlay\",\n  \"rootfs-size\": \"3GiB\", \"outputs\": [\"/output\"],\n  \"jobs\": [\n%s\n  ]}\n",
		strings.Join(jobs, ",\n"))
	return files, nil
}
