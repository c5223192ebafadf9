// Package cluster implements the Kubernetes-like control plane of the
// Cynthia prototype (paper Sec. 5): a master node that issues
// kubeadm-style join tokens, a node registry populated as provisioned
// instances join the cluster, a pod scheduler that pins one training
// docker per physical core, and a training-job controller that runs the
// whole pipeline — profile, plan, provision, join, schedule, train,
// tear down.
package cluster

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"sync"

	"cynthia/internal/cloud"
	"cynthia/internal/obs/journal"
)

// PodRole distinguishes worker and parameter-server pods.
type PodRole string

// Pod roles.
const (
	RoleWorker PodRole = "worker"
	RolePS     PodRole = "ps"
)

// Pod is one scheduled training docker.
type Pod struct {
	Name string
	Role PodRole
	Job  string
	// Node is the name of the node the pod is bound to.
	Node string
	// Core is the physical core index on the node.
	Core int
}

// Node is a cluster member backed by a cloud instance. Its snapshot form
// is all of it (see NodeState in state.go).
type Node struct {
	NodeState
}

// FreeCores returns the number of unoccupied docker slots.
func (n *Node) FreeCores() int {
	free := 0
	for _, p := range n.Used {
		if p == "" {
			free++
		}
	}
	return free
}

// Master is the control-plane head node.
type Master struct {
	mu      sync.Mutex
	token   string
	caHash  string
	nodes   map[string]*Node
	pods    map[string]*Pod
	nextPod int
	jrnl    *journal.Journal
}

// NewMaster initializes a master with a fresh bootstrap token and CA
// certificate hash, as "kubeadm init" would print.
func NewMaster() (*Master, error) {
	token, err := newToken()
	if err != nil {
		return nil, err
	}
	caBytes := make([]byte, 32)
	if _, err := rand.Read(caBytes); err != nil {
		return nil, fmt.Errorf("cluster: generating CA material: %w", err)
	}
	sum := sha256.Sum256(caBytes)
	return &Master{
		token:  token,
		caHash: "sha256:" + hex.EncodeToString(sum[:]),
		nodes:  make(map[string]*Node),
		pods:   make(map[string]*Pod),
		jrnl:   journal.New(journal.DefaultCapacity),
	}, nil
}

// Journal returns the control plane's flight-recorder journal. The
// controller, the planner, the plan service and the cloud provider append
// their correlated events here.
func (m *Master) Journal() *journal.Journal {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jrnl
}

// SetJournal replaces the journal every other subsystem appends to. The
// master itself emits nothing: its nodes and pods are in its registry,
// and the instances behind them are journaled by the cloud provider. The
// clock parameter is ignored; it stays while callers still pass one.
func (m *Master) SetJournal(j *journal.Journal, _ func() float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jrnl = j
}

// newToken builds a kubeadm bootstrap token: 6 chars "." 16 chars, from
// the [a-z0-9] alphabet.
func newToken() (string, error) {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	raw := make([]byte, 22)
	if _, err := rand.Read(raw); err != nil {
		return "", fmt.Errorf("cluster: generating token: %w", err)
	}
	for i, b := range raw {
		raw[i] = alphabet[int(b)%len(alphabet)]
	}
	return string(raw[:6]) + "." + string(raw[6:]), nil
}

// JoinCredentials returns the token and discovery CA hash new nodes must
// present ("kubeadm join --token ... --discovery-token-ca-cert-hash ...").
func (m *Master) JoinCredentials() (token, caHash string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.token, m.caHash
}

// Join registers an instance as a node after verifying its credentials,
// mirroring the prototype's kubeadm join step.
func (m *Master) Join(name, instanceID string, t cloud.InstanceType, cores int, token, caHash string) (*Node, error) {
	if cores < 1 {
		return nil, fmt.Errorf("cluster: node %s has %d cores", name, cores)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if token != m.token {
		return nil, fmt.Errorf("cluster: invalid bootstrap token for node %s", name)
	}
	if caHash != m.caHash {
		return nil, fmt.Errorf("cluster: CA cert hash mismatch for node %s", name)
	}
	if _, dup := m.nodes[name]; dup {
		return nil, fmt.Errorf("cluster: node %s already joined", name)
	}
	node := &Node{NodeState{Name: name, InstanceID: instanceID, Type: t, Cores: cores, Used: make([]string, cores)}}
	m.nodes[name] = node
	return node, nil
}

// Drain removes a node; it must have no running pods.
func (m *Master) Drain(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	node, ok := m.nodes[name]
	if !ok {
		return fmt.Errorf("cluster: no such node %s", name)
	}
	if node.FreeCores() != node.Cores {
		return fmt.Errorf("cluster: node %s still runs pods", name)
	}
	delete(m.nodes, name)
	return nil
}

// PodSpec requests one pod placement.
type PodSpec struct {
	Role PodRole
	Job  string
	// TypeName, when non-empty, restricts placement to nodes of that
	// instance type (training clusters are homogeneous per plan).
	TypeName string
}

// Schedule binds a pod to a node with a free core, preferring the node
// with the most free cores (spread). It returns an error when no capacity
// matches.
func (m *Master) Schedule(spec PodSpec) (*Pod, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var candidates []*Node
	for _, n := range m.nodes {
		if spec.TypeName != "" && n.Type.Name != spec.TypeName {
			continue
		}
		if n.FreeCores() > 0 {
			candidates = append(candidates, n)
		}
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("cluster: no free core for %s pod (type %q)", spec.Role, spec.TypeName)
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].FreeCores() != candidates[j].FreeCores() {
			return candidates[i].FreeCores() > candidates[j].FreeCores()
		}
		return candidates[i].Name < candidates[j].Name
	})
	node := candidates[0]
	core := -1
	for c, p := range node.Used {
		if p == "" {
			core = c
			break
		}
	}
	m.nextPod++
	pod := &Pod{
		Name: fmt.Sprintf("%s-%s-%d", spec.Job, spec.Role, m.nextPod),
		Role: spec.Role,
		Job:  spec.Job,
		Node: node.Name,
		Core: core,
	}
	node.Used[core] = pod.Name
	m.pods[pod.Name] = pod
	return pod, nil
}

// Delete removes a pod and frees its core.
func (m *Master) Delete(podName string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	pod, ok := m.pods[podName]
	if !ok {
		return fmt.Errorf("cluster: no such pod %s", podName)
	}
	if node, ok := m.nodes[pod.Node]; ok {
		node.Used[pod.Core] = ""
	}
	delete(m.pods, podName)
	return nil
}

// Nodes returns node snapshots sorted by name.
func (m *Master) Nodes() []Node {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Node, 0, len(m.nodes))
	for _, n := range m.nodes {
		cp := *n
		cp.Used = slices.Clone(n.Used)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Pods returns pod snapshots sorted by name, optionally filtered by job.
func (m *Master) Pods(job string) []Pod {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Pod, 0, len(m.pods))
	for _, p := range m.pods {
		if job == "" || p.Job == job {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
